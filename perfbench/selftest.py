#!/usr/bin/env python3
"""Planted-defect self-tests for the benchmark's output checks.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Each test feeds a check the honest output of the real program (which
must pass) and the same output with one defect planted (which must
fail): a W off by 1e-4, a residual above tolerance, an error exit, a
heap/calendar output that differs, a trace with one line dropped or
duplicated or corrupted, a count run from another sample path, and a
baseline mean sojourn at the no-steal (M/M/1) value. Two more show that
a failing program is counted as a failed operation, not a crash of the
benchmark: a `simulate` that exits with an error, and a corrupt trace
given to the in-process traced run.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
CLI = HELPER = PLAN = None


def setUpModule():
    global CLI, HELPER, PLAN
    CLI, HELPER = run.build(ROOT)
    PLAN = json.loads(subprocess.run([HELPER, "plan"], stdout=subprocess.PIPE,
                                     check=True).stdout)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


def runner():
    return run.Runner(CLI, WORK)


def path(name):
    return os.path.join(WORK, name)


def read(name):
    with open(path(name)) as f:
        return f.read()


def write(name, text):
    with open(path(name), "w") as f:
        f.write(text)


class SolveChecks(unittest.TestCase):
    def solve_doc(self, model):
        code, out, _ = runner().run(["solve", "--model", model, "--metrics-json", "-"])
        self.assertEqual(code, 0)
        return json.loads(out)

    def closed_form(self, model):
        args = ["--model", model]
        return next(c["closed_form_w"] for c in PLAN["solve"] if c["args"] == args)

    def test_w_off_by_1e_4_fails(self):
        model = "simple-ws,lambda=0.95"
        doc, w = self.solve_doc(model), self.closed_form(model)
        self.assertEqual(run.check_solve(doc, w)[0], [])
        doc["metrics"]["gauges"]["solver.mean_time_in_system"] *= 1 + 1e-4
        problems, rel = run.check_solve(doc, w)
        self.assertTrue(any("closed form" in p for p in problems), problems)
        self.assertGreater(rel, run.W_REL_TOL)

    def test_residual_above_tolerance_fails(self):
        doc = self.solve_doc("erlang-service,lambda=0.95")
        self.assertEqual(run.check_solve(doc, None)[0], [])
        doc["metrics"]["gauges"]["solver.residual"] = 10 * run.RESIDUAL_TOL
        self.assertTrue(any("residual" in p for p in run.check_solve(doc, None)[0]))

    def test_error_exit_counts_as_failed(self):
        r = runner()
        code, _, _ = r.run(["solve", "--model", "no-such-preset"])
        self.assertNotEqual(code, 0)
        self.assertEqual((r.attempted, r.failed), (1, 1))


class EngineCheck(unittest.TestCase):
    def outputs(self):
        outs = []
        for engine in ("heap", "calendar"):
            trace = path(f"engine-{engine}.ndjson")
            code, out, _ = runner().run(["simulate", *PLAN["engine_check"], "--seed", "5",
                                         "--engine", engine, "--trace", trace])
            self.assertEqual(code, 0)
            outs += [out, read(f"engine-{engine}.ndjson")]
        return outs

    def test_differing_trace_fails(self):
        heap_out, heap_trace, cal_out, cal_trace = self.outputs()
        self.assertEqual(run.check_engines(heap_out, heap_trace, cal_out, cal_trace), [])
        lines = heap_trace.splitlines()
        i = next(i for i, l in enumerate(lines) if '"ev":"completion"' in l)
        lines[i] = lines[i].replace('"proc":', '"proc":1', 1)
        planted = "\n".join(lines) + "\n"
        self.assertEqual(run.check_engines(heap_out, planted, cal_out, cal_trace),
                         ["heap and calendar traces differ"])

    def test_error_exit_is_counted_not_raised(self):
        r = runner()
        plan = dict(PLAN, engine_check=["--no-such-flag"])
        run.Bench(r, plan, 5, WORK).engine_check()
        self.assertEqual((r.attempted, r.failed), (1, 1))

    def test_differing_narrative_fails(self):
        heap_out, heap_trace, cal_out, cal_trace = self.outputs()
        planted = heap_out.replace("mean time in system:", "mean time in system: 1", 1)
        self.assertEqual(run.check_engines(planted, heap_trace, cal_out, cal_trace),
                         ["heap and calendar narratives differ"])


class CountRunCheck(unittest.TestCase):
    def test_other_sample_path_fails(self):
        case = PLAN["simulate"][0]
        outs = []
        for seed in ("5", "5", "6"):
            code, out, _ = runner().run(["simulate", *case["args"], "--seed", seed])
            self.assertEqual(code, 0)
            outs.append(out)
        self.assertTrue(run.same_sample_path(outs[0], outs[1]))
        self.assertFalse(run.same_sample_path(outs[0], outs[2]))


class PipelineChecks(unittest.TestCase):
    """One short traced simulate, read back by the three analyzers."""

    @classmethod
    def setUpClass(cls):
        args = list(PLAN["setup_trace_write"])
        args[args.index("--horizon") + 1] = "50"
        code, _, _ = runner().run(["simulate", *args, "--seed", "5", "--trace", path("t.ndjson"),
                                   "--metrics-json", path("t.json")])
        assert code == 0
        cls.trace = read("t.ndjson")
        cls.counters = json.loads(read("t.json"))["metrics"]["counters"]

    def analyze(self, text):
        """Write `text` as a trace; return (runner, outputs of the analyzers)."""
        write("planted.ndjson", text)
        r = runner()
        outs = [r.run([cmd, path("planted.ndjson")])[1] for cmd in ("report", "jobs", "transient")]
        return r, outs

    def planted(self, kind, edit):
        lines = self.trace.splitlines(keepends=True)
        i = next(i for i, l in enumerate(lines) if f'"ev":"{kind}"' in l)
        return "".join(edit(lines, i))

    def test_honest_trace_passes(self):
        r, outs = self.analyze(self.trace)
        self.assertEqual(r.failed, 0)
        self.assertEqual(run.check_pipeline(self.counters, *outs), [])

    def test_dropped_line_fails(self):
        text = self.planted("completion", lambda ls, i: ls[:i] + ls[i + 1:])
        r, outs = self.analyze(text)
        problems = run.check_pipeline(self.counters, *outs)
        self.assertTrue(any("report counts" in p for p in problems), problems)

    def test_duplicated_job_line_fails(self):
        text = self.planted("job_arrival", lambda ls, i: ls[:i + 1] + ls[i:])
        r, outs = self.analyze(text)
        self.assertIn("jobs reports lifecycle anomalies", run.check_pipeline(self.counters, *outs))

    def test_corrupt_line_fails_strict_parse(self):
        text = self.planted("tail_sample", lambda ls, i: ls[:i] + [ls[i][:-3] + "\n"] + ls[i + 1:])
        r, _ = self.analyze(text)
        self.assertEqual(r.failed, 3, r.failures)


class LayersChecks(unittest.TestCase):
    """The in-process traced run on a short CLI trace, honest and corrupt."""

    @classmethod
    def setUpClass(cls):
        r = runner()
        args = list(PLAN["setup_trace_write"])
        args[args.index("--horizon") + 1] = "50"
        r.run(["simulate", *args, "--seed", "5", "--trace", path("l.ndjson")])
        assert r.failed == 0, r.failures
        lines = read("l.ndjson").splitlines(keepends=True)
        i = next(i for i, l in enumerate(lines) if '"ev":"completion"' in l)
        write("l-corrupt.ndjson", "".join(lines[:i] + [lines[i][:-3] + "\n"] + lines[i + 1:]))
        cls.honest = cls.layers("l.ndjson")
        cls.corrupt = cls.layers("l-corrupt.ndjson")

    @staticmethod
    def layers(trace):
        b = run.Bench(runner(), PLAN, 5, WORK)
        return b, run.layers(b, HELPER, path(trace))

    def test_honest_trace_passes(self):
        b, doc = self.honest
        self.assertIsNotNone(doc)
        self.assertEqual(b.r.failures, [])

    def test_sojourn_at_mm1_fails(self):
        sojourn = self.honest[1]["metrics"]["baseline.mean_sojourn"]["value"]
        w = PLAN["baseline_w"]
        self.assertEqual(run.check_baseline(sojourn, w), [])
        # Without stealing each processor is an M/M/1 queue: W = 1/(1 − λ).
        mm1 = 1 / (1 - 0.9)
        self.assertNotEqual(run.check_baseline(sojourn * mm1 / w, w), [])

    def test_corrupt_trace_is_counted_not_raised(self):
        b, doc = self.corrupt
        self.assertIsNotNone(doc)
        self.assertEqual(b.r.failed, 1, b.r.failures)
        self.assertIn("layers.cli_trace_analyzes", b.r.failures[0])


if __name__ == "__main__":
    unittest.main(verbosity=2)
