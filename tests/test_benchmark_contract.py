"""The benchmark under ``perfbench/`` reaches into gapsvt by name: its tracer
hooks module attributes with ``getattr``, and its workloads call entry points
of ``gapsvt`` and ``gapsvt.verifier`` with positional and keyword arguments.
A rename or a removed parameter in ``src/`` that breaks either fails here,
inside the default test paths; ``perfbench/test_bench.py`` would catch it
only when run by hand."""

import ast
import importlib.util
import inspect
import math
import os
import sys

import pytest

import gapsvt
from gapsvt import verifier
from gapsvt.verifier import generate_workload

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_tracer_hook_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up there
    spec.loader.exec_module(tracer)
    hooks = tracer.gapsvt_hooks()
    assert hooks
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in hooks if not callable(getattr(module, attr, None))]
    assert missing == []


def _bench_tree():
    with open(os.path.join(PERFBENCH, "bench.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _gapsvt_imports(tree) -> set:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gapsvt"
        for alias in node.names
    }


def test_every_name_the_benchmark_calls_resolves():
    tree = _bench_tree()
    imported = _gapsvt_imports(tree)
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "verifier"
    }
    assert "check_alignment_soundness" in called
    assert [name for name in sorted(imported) if not hasattr(gapsvt, name)] == []
    assert [name for name in sorted(called) if not hasattr(verifier, name)] == []


def _gapsvt_calls(tree):
    """``(line, name, callable, call node)`` for every call in ``tree`` of a
    name imported from gapsvt or of an attribute of one, such as
    ``verifier.mc_output_dist`` or ``Workload.from_values``."""
    imported = _gapsvt_imports(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            yield node.lineno, func.id, getattr(gapsvt, func.id), node
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in imported:
            owner = getattr(gapsvt, func.value.id)
            yield node.lineno, f"{func.value.id}.{func.attr}", getattr(owner, func.attr), node


def test_every_call_of_the_benchmark_binds_to_its_signature():
    """Each call's positional count and keyword names bind to the callee's
    signature, so removing or renaming a parameter the benchmark passes
    fails here."""
    calls = list(_gapsvt_calls(_bench_tree()))
    assert {"verifier.mc_output_dist", "TrialPlan"} <= {name for _, name, _, _ in calls}
    unbound = []
    for line, name, fn, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), f"line {line}: starred call to {name}"
        keywords = [kw.arg for kw in node.keywords]
        assert None not in keywords, f"line {line}: ** call to {name}"
        try:
            inspect.signature(fn).bind(*node.args, **dict.fromkeys(keywords))
        except TypeError as e:
            unbound.append(f"perfbench/bench.py:{line} {name}: {e}")
    assert unbound == []


def test_default_enumeration_runs_kernels_and_decodes_but_no_per_tape_run(monkeypatch):
    """The ``enum`` workload's traced counts need kernel rows and decode
    calls above 0, and its no-work prediction needs ``mechanisms.*`` at 0:
    the default exact oracle goes through ``verifier.run_status_gaps`` and
    ``verifier.decode_row``, never through ``verifier.run_mechanism``."""
    calls = {"run_status_gaps": 0, "decode_row": 0, "run_mechanism": 0}
    for name in calls:
        real = getattr(verifier, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verifier, name, spy)
    for mechanism in gapsvt.MECHANISMS:
        w = gapsvt.default_enumeration_instances(mechanism)[0]
        verifier.enumerate_output_dist(mechanism, w, gapsvt.Side.D)
    assert calls["run_status_gaps"] > 0
    assert calls["decode_row"] > 0
    assert calls["run_mechanism"] == 0


def test_enum_work_unit_is_the_box_size(monkeypatch):
    """The ``enum`` workload counts ``notes["grid_points"]`` as its work, and
    that stays the box size, the product of ``2 * bound + 1`` over every axis,
    whatever the exact oracle's own cap counts."""
    monkeypatch.syspath_prepend(PERFBENCH)  # bench.py imports its tracer by file name
    spec = importlib.util.spec_from_file_location("perfbench_bench", os.path.join(PERFBENCH, "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    assert len(bench.EnumWorkload.SUBSET) == 3
    for mechanism, index in bench.EnumWorkload.SUBSET:
        w = gapsvt.default_enumeration_instances(mechanism)[index]
        report, _ = verifier.check_dp_exact(mechanism, w)
        bounds = verifier.enumerate_output_dist(mechanism, w, gapsvt.Side.D).meta["bounds"]
        assert report.notes["grid_points"] == math.prod(2 * b + 1 for b in bounds)


def test_dp_exact_joins_its_sides_inside_the_traced_loss(monkeypatch):
    """The tracer times ``verifier.loss_s`` as the span of
    ``verifier.max_privacy_loss``: ``check_dp_exact`` has to call it through
    the module's name, after it enumerates both sides in one call of
    ``_enumerate_sides``, and the one pairing of the two sides, by their
    lattice positions (``_paired``), has to run inside that span; the dict
    join (``_joined``) and the per-side ``enumerate_output_dist`` do not run."""
    names = ("_enumerate_sides", "enumerate_output_dist", "max_privacy_loss", "_paired", "_joined")
    calls = dict.fromkeys(names, 0)
    calls["pairings_outside_loss"] = 0
    inside, sides = [], []
    for name in names:
        real = getattr(verifier, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            if name == "_enumerate_sides":
                sides.append(args[2])
            calls["pairings_outside_loss"] += name == "_paired" and inside != ["max_privacy_loss"]
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(verifier, name, spy)
    w = gapsvt.default_enumeration_instances(gapsvt.SVT_GAP)[0]
    verifier.check_dp_exact(gapsvt.SVT_GAP, w)
    assert sides == [(gapsvt.Side.D, gapsvt.Side.DPRIME)]
    assert calls == {
        "_enumerate_sides": 1,
        "enumerate_output_dist": 0,
        "max_privacy_loss": 1,
        "_paired": 1,
        "_joined": 0,
        "pairings_outside_loss": 0,
    }


@pytest.mark.parametrize("mechanism", gapsvt.MECHANISMS)
def test_trial_loop_runs_per_tape_through_the_traced_names(monkeypatch, mechanism):
    """The ``trials`` workload's traced counts need ``verifier.run_mechanism``,
    ``draw_tape`` and ``check_workload`` calls; its
    ``countability_hit_ratio`` needs exactly one ``draw_tape`` inside each
    passing ``_structural_trial``; its no-work prediction needs no call of
    the array kernel or the output keying.  And trial i's workload and tape
    are the first draws of ``trial_rng(master_seed, i)``, so a witness's
    ``trial_index`` addresses its trial."""
    names = ("run_mechanism", "draw_tape", "check_workload", "generate_workload", "_structural_trial")
    forbidden = ("run_status_gaps", "encode_int_rows", "canonical_rows", "decode_row")
    calls = dict.fromkeys(names + forbidden, 0)
    inside = []
    structural_draws = []
    trials = []  # (state of the stream at generation, workload, tape) per trial

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if name == "generate_workload":
                trials.append([args[1].bit_generator.state])
            if name == "_structural_trial":
                structural_draws.append(0)
            elif name == "draw_tape" and inside == ["_structural_trial"]:
                structural_draws[-1] += 1
            inside.append(name)
            try:
                result = real(*args, **kwargs)
            finally:
                inside.pop()
            if name == "generate_workload":
                trials[-1].append(result)
            elif name == "draw_tape" and not inside:
                trials[-1].append(result)
            return result

        return wrapped

    for name in names + forbidden:
        monkeypatch.setattr(verifier, name, spy(name, getattr(verifier, name)))
    plan = gapsvt.TrialPlan(mechanism, trials=40, master_seed=77)
    reports = verifier.run_trial_suites(plan)
    assert all(r.passed for r in reports.values())
    assert min(calls[name] for name in ("run_mechanism", "draw_tape", "check_workload")) >= 1
    assert calls["generate_workload"] == calls["_structural_trial"] == plan.trials
    assert structural_draws == [1] * plan.trials
    assert [calls[name] for name in forbidden] == [0] * len(forbidden)
    assert len(trials) == plan.trials
    for i, (state, generated, tape) in enumerate(trials):
        rng = verifier.trial_rng(plan.master_seed, i)
        assert rng.bit_generator.state == state
        again = generate_workload(plan, rng)
        assert again == generated
        spec = verifier.default_budget(mechanism, again[0]).noise_spec(again[1])
        assert gapsvt.core.draw_tape(spec, len(again[0]), rng) == tape
