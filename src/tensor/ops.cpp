#include "tensor/ops.hpp"

#include <algorithm>
#include <stdexcept>

namespace saps::ops {

namespace {
void require_same(std::size_t a, std::size_t b, const char* what) {
  if (a != b) {
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  }
}
}  // namespace

// The gemm / gemm_fused / gemm_acc / gemm_at_b_acc / gemm_a_bt_acc /
// gemm_a_bt_fused family lives in tensor/gemm.cpp (the blocked kernel layer).

namespace {

/// Output positions [lo, hi) along one axis whose input coordinate
/// o * stride + tap - pad lands inside [0, extent).
struct ValidRange {
  std::size_t lo, hi;
};

ValidRange valid_range(std::size_t out, std::size_t extent, std::size_t tap,
                       std::size_t stride, std::size_t pad) {
  const std::size_t lo = tap >= pad ? 0 : (pad - tap + stride - 1) / stride;
  std::size_t hi =
      extent + pad > tap ? (extent - 1 + pad - tap) / stride + 1 : 0;
  hi = std::min(hi, out);
  return {std::min(lo, hi), hi};
}

}  // namespace

// Both kernels walk the taps (c, kh, kw) in ascending order, as the column
// rows are laid out, and handle each tap's valid window as whole runs: the
// rows and columns of the output that read inside the image are computed
// once per tap instead of being tested per element.
void im2col(std::span<const float> img, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kernel_h,
            std::size_t kernel_w, std::size_t stride, std::size_t pad,
            std::span<float> cols) {
  const std::size_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  require_same(img.size(), channels * height * width, "im2col img");
  require_same(cols.size(), channels * kernel_h * kernel_w * out_h * out_w,
               "im2col cols");
  const std::size_t plane = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* src = img.data() + c * height * width;
    for (std::size_t kh = 0; kh < kernel_h; ++kh) {
      const ValidRange rows = valid_range(out_h, height, kh, stride, pad);
      for (std::size_t kw = 0; kw < kernel_w; ++kw, ++row) {
        const ValidRange run = valid_range(out_w, width, kw, stride, pad);
        float* dst = cols.data() + row * plane;
        if (run.lo < run.hi) {
          const std::size_t len = run.hi - run.lo;
          const std::size_t iw0 = run.lo * stride + kw - pad;
          for (std::size_t oh = rows.lo; oh < rows.hi; ++oh) {
            float* d = dst + oh * out_w + run.lo;
            const float* s = src + (oh * stride + kh - pad) * width + iw0;
            if (stride == 1) {
              std::copy(s, s + len, d);
            } else {
              for (std::size_t j = 0; j < len; ++j) d[j] = s[j * stride];
            }
          }
        }
        // Zero what lies outside the image: the rows above and below the
        // valid ones, then the edge columns between them, column by column
        // (at most `pad` columns on each side of a padded convolution).
        std::fill(dst, dst + rows.lo * out_w, 0.0f);
        std::fill(dst + rows.hi * out_w, dst + plane, 0.0f);
        const auto zero_columns = [&](std::size_t from, std::size_t to) {
          for (std::size_t ow = from; ow < to; ++ow) {
            for (std::size_t oh = rows.lo; oh < rows.hi; ++oh) {
              dst[oh * out_w + ow] = 0.0f;
            }
          }
        };
        zero_columns(0, run.lo);
        zero_columns(run.hi, out_w);
      }
    }
  }
}

// Each image pixel receives at most one term per tap, so visiting the taps
// in ascending (c, kh, kw) order keeps every pixel's accumulation order —
// and therefore its bits — identical to the per-element loop.
void col2im(std::span<const float> cols, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kernel_h,
            std::size_t kernel_w, std::size_t stride, std::size_t pad,
            std::span<float> img_grad) {
  const std::size_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  require_same(img_grad.size(), channels * height * width, "col2im img_grad");
  require_same(cols.size(), channels * kernel_h * kernel_w * out_h * out_w,
               "col2im cols");
  const std::size_t plane = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    float* dst = img_grad.data() + c * height * width;
    for (std::size_t kh = 0; kh < kernel_h; ++kh) {
      const ValidRange rows = valid_range(out_h, height, kh, stride, pad);
      for (std::size_t kw = 0; kw < kernel_w; ++kw, ++row) {
        const ValidRange run = valid_range(out_w, width, kw, stride, pad);
        const std::size_t len = run.hi - run.lo;
        if (len == 0) continue;
        const std::size_t iw0 = run.lo * stride + kw - pad;
        const float* src = cols.data() + row * plane + run.lo;
        for (std::size_t oh = rows.lo; oh < rows.hi; ++oh) {
          const float* __restrict s = src + oh * out_w;
          float* __restrict d = dst + (oh * stride + kh - pad) * width + iw0;
          if (stride == 1) {
            for (std::size_t j = 0; j < len; ++j) d[j] += s[j];
          } else {
            for (std::size_t j = 0; j < len; ++j) d[j * stride] += s[j];
          }
        }
      }
    }
  }
}

}  // namespace saps::ops
