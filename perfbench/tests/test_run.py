"""Self-test of the benchmark's own arithmetic (no build needed):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402


def run_output(points, samples=1000.0, loop_s=2.0, **outputs):
    out = {"points": points, "samples": samples, "loop_s": loop_s,
           "setup_s": 0.1, "peak_rss_mb": 50.0, "final_accuracy": 0.9,
           "final_loss": 0.3, "traffic_mb": 1.5, "sim_comm_s": 0.25}
    out.update(outputs)
    return out


def span(name, ts, dur, span_id, parent, tid=0, worker=-1):
    return {"name": name, "ph": "X", "pid": 1, "tid": tid, "ts": ts,
            "dur": dur, "args": {"id": span_id, "parent": parent,
                                 "worker": worker, "round": 0}}


# A synthetic eval stream: [seconds since set-up, round, accuracy].
STREAM = [[0.05, 0, 0.10], [1.0, 15, 0.55], [2.0, 30, 0.80],
          [3.0, 45, 0.92], [4.0, 60, 0.97]]


class EndToEndArithmetic(unittest.TestCase):
    def test_time_to_target_is_the_first_point_at_or_above_target(self):
        self.assertEqual(run.time_to_target(STREAM, 0.8), (2.0, 2))
        self.assertEqual(run.time_to_target(STREAM, 0.81), (3.0, 3))

    def test_unreached_target_is_none_and_fails_the_run(self):
        self.assertIsNone(run.time_to_target(STREAM, 0.99))
        self.assertIn("never reached",
                      run.run_failure(run_output(STREAM), 0.99))

    def test_target_must_be_crossed_strictly_inside_the_run(self):
        self.assertIsNone(run.run_failure(run_output(STREAM), 0.9))
        self.assertIn("not strictly inside",
                      run.run_failure(run_output(STREAM), 0.05))
        self.assertIn("not strictly inside",
                      run.run_failure(run_output(STREAM), 0.95))

    def test_samples_per_s_divides_by_the_whole_loop(self):
        self.assertEqual(run.samples_per_s(28800, 2.4), 12000.0)

    def test_end_to_end_takes_medians_and_first_run_outputs(self):
        runs = [run_output(STREAM, loop_s=s) for s in (4.0, 2.0, 8.0)]
        runs[1]["points"] = [[t / 2, r, a] for t, r, a in STREAM]
        for o, setup in zip(runs, (0.3, 0.1, 0.2)):
            o["setup_s"] = setup
        values = run.end_to_end(runs, target=0.8)
        self.assertEqual(values["time_to_target_s"], 2.0)
        self.assertEqual(values["samples_per_s"], 250.0)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["final_accuracy"], 0.9)

    def test_runs_disagreeing_on_deterministic_outputs_are_split_off(self):
        runs = [run_output(STREAM), run_output(STREAM),
                run_output(STREAM, traffic_mb=1.6)]
        agreeing, differing = run.split_by_outputs(runs)
        self.assertEqual(len(agreeing), 2)
        self.assertEqual(differing[0]["traffic_mb"], 1.6)

    def test_divergence_names_the_output(self):
        traced = run_output(STREAM, sim_comm_s=0.178)
        self.assertEqual(run.diverged(traced, run_output(STREAM)),
                         ["sim_comm_s"])
        self.assertEqual(run.diverged(run_output(STREAM),
                                      run_output(STREAM)), [])


class TraceArithmetic(unittest.TestCase):
    # A 100 us loop: two local-step sections of 30 us on a 2-thread pool
    # (worker spans busy 50 of the 2 x 30 us first, 60 of 60 second), a
    # 20 us eval, and 20 us under no phase span.
    EVENTS = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {}},
        span("scenario.spec", 0, 4, 1, 0),
        span("algos.loop", 10, 100, 2, 0),
        span("sim.local_step", 10, 30, 3, 2),
        span("sim.worker_step", 10, 30, 4, 3, tid=1, worker=0),
        span("sim.worker_step", 12, 20, 5, 3, tid=2, worker=1),
        span("sim.local_step", 50, 30, 6, 2),
        span("sim.worker_step", 50, 30, 7, 6, tid=1, worker=0),
        span("sim.worker_step", 50, 30, 8, 6, tid=2, worker=1),
        span("sim.eval", 90, 20, 9, 2),
    ]

    def test_busy_seconds_shares_coverage_and_other(self):
        out = run.phase_breakdown(self.EVENTS, threads=2)
        self.assertAlmostEqual(out["sim.local_step_s"], 60e-6)
        self.assertAlmostEqual(out["sim.local_step_share"], 0.6)
        self.assertAlmostEqual(out["sim.eval_share"], 0.2)
        self.assertEqual(out["sim.cohort_s"], 0.0)
        self.assertAlmostEqual(out["trace.coverage"], 0.8)
        self.assertAlmostEqual(out["algos.other_s"], 20e-6)
        self.assertAlmostEqual(out["scenario.spec_s"], 4e-6)

    def test_idle_share_counts_threads_times_section_wall(self):
        out = run.phase_breakdown(self.EVENTS, threads=2)
        self.assertAlmostEqual(out["sim.local_step_idle_frac"],
                               1 - 110 / (2 * 60))
        # Serial engine (threads=0): one thread runs the workers in turn.
        serial = [span("algos.loop", 0, 40, 1, 0),
                  span("sim.local_step", 0, 30, 2, 1),
                  span("sim.worker_step", 0, 12, 3, 2, worker=0),
                  span("sim.worker_step", 13, 15, 4, 2, worker=1)]
        self.assertAlmostEqual(
            run.phase_breakdown(serial, threads=0)["sim.local_step_idle_frac"],
            0.1)

    def test_overlapping_phases_are_covered_once(self):
        events = self.EVENTS + [span("net.decode", 95, 10, 10, 2)]
        self.assertAlmostEqual(
            run.phase_breakdown(events, threads=2)["trace.coverage"], 0.8)

    def test_unknown_phase_is_rejected(self):
        with self.assertRaises(ValueError):
            run.phase_breakdown(self.EVENTS + [span("x.y", 95, 1, 11, 2)], 2)


class MetricNames(unittest.TestCase):
    BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_every_declared_metric_has_a_name_and_a_unit(self):
        for section in ("end_to_end", "per_layer"):
            for metric in self.BENCH[section]:
                self.assertTrue(metric["name"])
                self.assertTrue(metric["unit"])

    def test_printed_metrics_are_exactly_the_declared_ones(self):
        declared = {m["name"]: m["unit"] for m in self.BENCH["end_to_end"]}
        values = run.end_to_end([run_output(STREAM)], target=0.8)
        named = run.with_units(values, declared)
        self.assertEqual(set(named), set(declared))
        for name, metric in named.items():
            self.assertEqual(metric["unit"], declared[name])
        with self.assertRaises(ValueError):
            run.with_units({**values, "extra": 1.0}, declared)

    def test_per_layer_metrics_are_exactly_the_declared_ones(self):
        declared = {m["name"]: m["unit"] for m in self.BENCH["per_layer"]}
        # The child's counters are the declared metrics the spans and the
        # set-up RSS do not give.
        from_spans = set(run.phase_breakdown(TraceArithmetic.EVENTS, 2))
        counters = {name: 1.0 for name in declared
                    if name not in from_spans | {"sim.rss_after_setup_mb",
                                                 "trace.overhead"}}
        traced = {"threads": 2, "rss_after_setup_mb": 40.0,
                  "counters": counters}
        values = run.per_layer(TraceArithmetic.EVENTS, traced, 1e-4)
        self.assertEqual(set(run.with_units(values, declared)), set(declared))
        self.assertAlmostEqual(values["trace.overhead"], 0.0)
        traced["counters"] = {**counters, "net.extra": 1.0}
        with self.assertRaises(ValueError):
            run.with_units(run.per_layer(TraceArithmetic.EVENTS, traced, 1e-4),
                           declared)


if __name__ == "__main__":
    unittest.main()
