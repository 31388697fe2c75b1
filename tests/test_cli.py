import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gapsvt import cli
from gapsvt.cli import build_parser, load_workload_dict, main
from gapsvt.core import NoiseKind, Side, Workload
from gapsvt.errors import DomainError, GapSvtError
from gapsvt.mechanisms import sample_run
from gapsvt.verifier import Witness, replay_witness


@pytest.fixture
def workload_file(tmp_path):
    def write(payload, name="w.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


GOLDEN = {"pairs": [[5, 4], [3, 3], [7, 7]], "threshold": 4, "k": 2, "epsilon": 1.0, "noise": "laplace"}


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json_lines(out: str) -> list:
    """Every stdout line parsed as strict JSON (no NaN or Infinity)."""
    return [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]


class TestRunCommand:
    def test_zero_tape_golden_trace(self, capsys, workload_file, tmp_path):
        tape = tmp_path / "tape.json"
        tape.write_text(json.dumps({"threshold": 0, "per_query": [0, 0, 0]}))
        code, out, _ = run_cli(
            capsys,
            ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN),
             "--side", "d", "--seed", "1", "--tape", str(tape)],
        )
        assert code == 0
        record = json.loads(out)
        assert record["answers"] == [
            {"gap": 1, "branch": "plain"},
            {"bot": True},
            {"gap": 3, "branch": "plain"},
        ]
        assert record["consumed"] == 4

    def test_byte_identical_reruns(self, capsys, workload_file):
        argv = ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN),
                "--side", "d", "--seed", "9", "--runs", "4"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_records_replay(self, capsys, workload_file):
        code, out, _ = run_cli(
            capsys,
            ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN),
             "--side", "dprime", "--seed", "40", "--runs", "8"],
        )
        assert code == 0
        w = Workload.from_values(GOLDEN["pairs"], 4, 2, 1.0)
        for line in out.strip().splitlines():
            record = json.loads(line)
            again = sample_run(record["mechanism"], w, Side.DPRIME, record["seed"])[0].output
            emitted = [
                {"bot": True} if a == "bot" else {"gap": a[1], "branch": a[0]}
                for a in again
            ]
            assert emitted == record["answers"]

    def test_runs_respect_top_bound(self, capsys, workload_file):
        code, out, _ = run_cli(
            capsys,
            ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN),
             "--seed", "3", "--runs", "1000"],
        )
        lines = out.strip().splitlines()
        assert len(lines) == 1000
        for line in lines:
            record = json.loads(line)
            gaps = [a for a in record["answers"] if "gap" in a and "bot" not in a]
            assert len(gaps) <= GOLDEN["k"]

    def test_text_format(self, capsys, workload_file, tmp_path):
        tape = tmp_path / "tape.json"
        tape.write_text(json.dumps({"threshold": 0, "per_query": [0, 0, 0]}))
        code, out, _ = run_cli(
            capsys,
            ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN),
             "--seed", "1", "--format", "text", "--tape", str(tape)],
        )
        assert code == 0
        assert "⊤(gap=1)" in out and "⊥" in out

    def test_adaptive_bot_serializes_with_zero_gap(self, capsys, workload_file, tmp_path):
        payload = {"pairs": [[0, 1]], "threshold": 4, "k": 1, "epsilon": 1.0,
                   "sigma": 2, "noise": "laplace"}
        tape = tmp_path / "tape.json"
        tape.write_text(json.dumps({"threshold": 0, "per_query": [[0, 0]]}))
        code, out, _ = run_cli(
            capsys,
            ["run", "--mechanism", "adaptive-gap", "--workload", workload_file(payload),
             "--seed", "1", "--tape", str(tape)],
        )
        record = json.loads(out)
        assert record["answers"] == [{"bot": True, "gap": 0}]
        assert record["cost_ledger"]["running_cost"] == 0.5
        assert record["consumed"] == 3

    def test_env_seed_default(self, capsys, workload_file, monkeypatch):
        monkeypatch.setenv("GAPSVT_SEED", "123")
        _, with_env, _ = run_cli(
            capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN)]
        )
        monkeypatch.delenv("GAPSVT_SEED")
        _, explicit, _ = run_cli(
            capsys,
            ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN), "--seed", "123"],
        )
        assert with_env == explicit


ADAPTIVE_ONE = {"pairs": [[0, 1]], "threshold": 4, "k": 1, "epsilon": 1.0, "sigma": 2, "noise": "laplace"}


class TestTapeFileGate:
    """``run --tape`` takes the tape format a witness carries and nothing
    else; a bad number or field is a data error (exit 2) naming the entry."""

    @pytest.mark.parametrize(
        "mechanism, text, named",
        [
            ("svt-gap", '{"threshold": "abc", "per_query": [0, 0, 0]}', "'threshold'"),
            ("svt-gap", '{"threshold": NaN, "per_query": [0, 0, 0]}', "'threshold'"),
            ("svt-gap", '{"threshold": true, "per_query": [0, 0, 0]}', "'threshold'"),
            ("svt-gap", '{"threshold": 0, "per_query": [0, NaN, 0]}', "entry 1"),
            ("svt-gap", '{"threshold": 0, "per_query": [0, 0, -Infinity]}', "entry 2"),
            ("svt-gap", '{"threshold": 0, "per_query": [0, false, 0]}', "entry 1"),
            pytest.param("svt-gap", '{"threshold": 0, "per_query": [0, 0, 1%s]}' % ("0" * 400), "entry 2", id="int-past-float"),
            ("svt-gap", '{"threshold": 0, "per_query": [0, 0, 0], "note": 1}', "'note'"),
            ("svt-gap", '{"threshold": 0, "per_query": [0, 0, 0], "layout": "paired"}', "'layout'"),
            ("adaptive-gap", '{"threshold": 0, "per_query": [["x", 0], [0, 0]]}', "entry 0"),
            ("adaptive-gap", '{"threshold": 0, "per_query": [[0, NaN]]}', "entry 0"),
            ("adaptive-gap", '{"threshold": 0, "per_query": [[0, true]]}', "entry 0"),
        ],
    )
    def test_bad_tape_exits_2_naming_the_entry(self, capsys, workload_file, tmp_path, mechanism, text, named):
        tape = tmp_path / "tape.json"
        tape.write_text(text)
        payload = ADAPTIVE_ONE if mechanism == "adaptive-gap" else GOLDEN
        code, out, err = run_cli(
            capsys, ["run", "--mechanism", mechanism, "--workload", workload_file(payload), "--tape", str(tape)]
        )
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("mechanism, per_query", [("svt-gap", [0, 0, 0]), ("adaptive-gap", [[0, 0]])])
    def test_witness_tape_with_its_layout_runs(self, capsys, workload_file, tmp_path, mechanism, per_query):
        payload = ADAPTIVE_ONE if mechanism == "adaptive-gap" else GOLDEN
        outs = []
        for extra in ({}, {"layout": "paired" if mechanism == "adaptive-gap" else "single"}):
            tape = tmp_path / "tape.json"
            tape.write_text(json.dumps({"threshold": 0, "per_query": per_query, **extra}))
            code, out, _ = run_cli(
                capsys, ["run", "--mechanism", mechanism, "--workload", workload_file(payload), "--tape", str(tape)]
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


_WITNESS_WORKLOAD = {"pairs": [[1, 0], [0, 1]], "threshold": 0, "k": 1, "epsilon": 1.0, "sigma": None}
_WITNESS_INPUTS = {
    "svt-gap": (_WITNESS_WORKLOAD, {"threshold": 0, "per_query": [0, 0], "layout": "single"}),
    "adaptive-gap": ({**_WITNESS_WORKLOAD, "sigma": 1}, {"threshold": 0, "per_query": [[0, 0], [0, 0]], "layout": "paired"}),
}

DROP = object()  # an edit that removes the field

# (mechanism, workload edits, tape edits, named): an edit under the key
# "whole" replaces the whole dict
BAD_WITNESS_INPUTS = {
    "paired-tape-scalar-entry": ("adaptive-gap", {}, {"per_query": [0, [0, 0]]}, "entry 0"),
    "paired-tape-long-entry": ("adaptive-gap", {}, {"per_query": [[0, 0, 0], [0, 0]]}, "entry 0"),
    "single-tape-pair-entry": ("svt-gap", {}, {"per_query": [[0, 0], 0]}, "entry 0"),
    "tape-nan-draw": ("svt-gap", {}, {"per_query": [0, math.nan]}, "entry 1"),
    "tape-nan-threshold": ("adaptive-gap", {}, {"threshold": math.nan}, "'threshold'"),
    "tape-string-threshold": ("svt-gap", {}, {"threshold": "0"}, "'threshold'"),
    "tape-too-short": ("svt-gap", {}, {"per_query": [0]}, "at least 2"),
    "tape-wrong-layout": ("svt-gap", {}, {"layout": "paired"}, "'layout'"),
    "tape-unknown-field": ("adaptive-gap", {}, {"note": 1}, "'note'"),
    "tape-not-an-object": ("svt-gap", {}, {"whole": [0, 0, 0]}, "'per_query'"),
    "nan-threshold": ("svt-gap", {"threshold": math.nan}, {}, "'threshold'"),
    "infinite-value": ("adaptive-gap", {"pairs": [[1, math.inf], [0, 1]]}, {}, "pairs[0][1]"),
    "three-value-pair": ("svt-gap", {"pairs": [[1, 0, 1], [0, 1]]}, {}, "entry 0"),
    "string-epsilon": ("svt-gap", {"epsilon": "1"}, {}, "'epsilon'"),
    "bool-k": ("svt-gap", {"k": True}, {}, "'k'"),
    "string-sigma": ("adaptive-gap", {"sigma": "1"}, {}, "'sigma'"),
    "string-pair-value": ("svt-gap", {"pairs": [[1, 0], ["0", 1]]}, {}, "pairs[1][0]"),
    # JSON true and false are numbers to Python; the workload gate refuses them
    "bool-threshold": ("svt-gap", {"threshold": False}, {}, "'threshold'"),
    "bool-epsilon": ("svt-gap", {"epsilon": True}, {}, "'epsilon'"),
    "bool-sigma": ("adaptive-gap", {"sigma": True}, {}, "'sigma'"),
    "bool-pair-value": ("adaptive-gap", {"pairs": [[1, False], [0, 1]]}, {}, "pairs[0][1]"),
    "missing-k": ("svt-gap", {"k": DROP}, {}, "'k'"),
    "unknown-workload-field": ("svt-gap", {"note": 1}, {}, "'note'"),
    "workload-not-an-object": ("adaptive-gap", {"whole": [[1, 0]]}, {}, "JSON object"),
    # well formed, but failing the workload gate
    "empty-pairs": ("svt-gap", {"pairs": []}, {}, "workload has no query pairs"),
    "zero-epsilon": ("svt-gap", {"epsilon": 0}, {}, "epsilon must be positive, got 0"),
    "sensitivity-violation": ("svt-gap", {"pairs": [[3, 0]]}, {}, "query pair 0 violates the sensitivity-1 contract"),
    "adaptive-without-sigma": ("adaptive-gap", {"sigma": None}, {}, "adaptive mechanism requires workload.sigma"),
}


def _edited(base: dict, edits: dict):
    if "whole" in edits:
        return edits["whole"]
    out = {**base, **edits}
    return {k: v for k, v in out.items() if v is not DROP}


class TestMalformedWitnessInputs:
    """One table of bad workload and tape dicts: ``run --tape`` exits 2 and
    ``replay_witness`` raises ``DomainError``, with the same message."""

    @staticmethod
    def _inputs(name):
        mechanism, workload_edits, tape_edits, named = BAD_WITNESS_INPUTS[name]
        workload, tape = _WITNESS_INPUTS[mechanism]
        return mechanism, _edited(workload, workload_edits), _edited(tape, tape_edits), named

    @pytest.mark.parametrize("name", sorted(BAD_WITNESS_INPUTS))
    def test_run_with_tape_exits_2_and_replay_raises(self, capsys, workload_file, tmp_path, name):
        mechanism, workload, tape, named = self._inputs(name)
        payload = {**workload, "noise": "dlap"} if isinstance(workload, dict) else workload
        tape_path = tmp_path / "tape.json"
        tape_path.write_text(json.dumps(tape))
        code, out, err = run_cli(
            capsys, ["run", "--mechanism", mechanism, "--workload", workload_file(payload), "--tape", str(tape_path)]
        )
        assert (code, out) == (2, "")
        assert named in err
        witness = Witness(kind="soundness", mechanism=mechanism, noise="dlap", workload=workload, tape=tape, detail="")
        with pytest.raises(DomainError) as info:
            replay_witness(witness)
        assert err == f"error: {info.value}\n"

    @pytest.mark.parametrize("name", sorted(name for name, row in BAD_WITNESS_INPUTS.items() if row[1]))
    def test_dp_exact_replay_of_a_bad_workload_raises(self, name):
        mechanism, workload, _, named = self._inputs(name)
        witness = Witness(kind="dp-exact", mechanism=mechanism, noise="dlap", workload=workload, detail="")
        with pytest.raises(DomainError) as info:
            replay_witness(witness)
        assert named in str(info.value)

    @pytest.mark.parametrize("mechanism", sorted(_WITNESS_INPUTS))
    def test_the_table_base_runs_and_replays(self, capsys, workload_file, tmp_path, mechanism):
        workload, tape = _WITNESS_INPUTS[mechanism]
        tape_path = tmp_path / "tape.json"
        tape_path.write_text(json.dumps(tape))
        code, _, _ = run_cli(
            capsys,
            ["run", "--mechanism", mechanism, "--workload", workload_file({**workload, "noise": "dlap"}), "--tape", str(tape_path)],
        )
        assert code == 0
        witness = Witness(kind="soundness", mechanism=mechanism, noise="dlap", workload=workload, tape=tape, detail="")
        assert replay_witness(witness) is False


class TestWorkloadFileValidation:
    def test_unknown_field_rejected(self, capsys, workload_file):
        code, _, err = run_cli(
            capsys,
            ["run", "--mechanism", "svt-gap",
             "--workload", workload_file({**GOLDEN, "bogus": 1})],
        )
        assert code == 2
        assert "bogus" in err

    def test_missing_field_named(self, capsys, workload_file):
        payload = {k: v for k, v in GOLDEN.items() if k != "epsilon"}
        code, _, err = run_cli(
            capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload)]
        )
        assert code == 2
        assert "epsilon" in err

    def test_bad_pair_entry_indexed(self, capsys, workload_file):
        payload = {**GOLDEN, "pairs": [[5, 4], [3]]}
        code, _, err = run_cli(
            capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload)]
        )
        assert code == 2
        assert "1" in err

    def test_sensitivity_violation_indexed(self, capsys, workload_file):
        payload = {**GOLDEN, "pairs": [[5, 4], [9, 3]]}
        code, _, err = run_cli(
            capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload)]
        )
        assert code == 2
        assert "1" in err

    def test_bad_noise_value(self, capsys, workload_file):
        payload = {**GOLDEN, "noise": "gaussian"}
        code, _, err = run_cli(
            capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload)]
        )
        assert code == 2
        assert "noise" in err
        with pytest.raises(DomainError) as info:
            load_workload_dict(payload)
        assert err == f"error: {info.value}\n"

    def test_missing_noise(self, capsys, workload_file):
        payload = {k: v for k, v in GOLDEN.items() if k != "noise"}
        code, _, err = run_cli(
            capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload)]
        )
        assert code == 2
        assert "'noise' is missing" in err
        with pytest.raises(DomainError) as info:
            load_workload_dict(payload)
        assert err == f"error: {info.value}\n"

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text('{"pairs": [[1, 0]],')
        argv = ["run", "--mechanism", "svt-gap", "--workload", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "is not valid JSON" in err
        args = build_parser().parse_args(argv)
        with pytest.raises(DomainError) as info:
            args.func(args)
        assert err == f"error: {info.value}\n"

    def test_load_fields(self):
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 2.0,
                   "sigma": 1.5, "noise": "dlap"}
        assert load_workload_dict(payload) == (Workload.from_values([(1, 0)], 0, 1, 2.0, 1.5), NoiseKind.DLAP)


class TestInputGate:
    """Non-finite numbers are data errors (exit 2) naming the field, and
    stdout never carries a NaN or an Infinity."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon", float("inf")),
            ("epsilon", float("nan")),
            ("threshold", float("nan")),
            ("threshold", float("-inf")),
            ("sigma", float("nan")),
            ("pairs", [[5, 4], [float("inf"), float("inf")]]),
            ("pairs", [[float("nan"), 1]]),
            ("threshold", 10**400),
        ],
    )
    def test_non_finite_field_exits_2(self, capsys, workload_file, field, value):
        payload = {**GOLDEN, "sigma": 2, field: value}
        code, out, err = run_cli(
            capsys, ["run", "--mechanism", "adaptive-gap", "--workload", workload_file(payload)]
        )
        assert code == 2
        assert out == ""
        assert field in err and "finite" in err

    def test_overflowing_gap_is_a_data_error_not_infinity(self, capsys, workload_file):
        payload = {**GOLDEN, "pairs": [[1e308, 1e308]], "threshold": -1e308}
        code, out, err = run_cli(
            capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload), "--seed", "1"]
        )
        assert code == 2
        assert "Infinity" not in out and out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_is_a_usage_error(self, capsys, workload_file, runs):
        code, out, err = run_cli(
            capsys,
            ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN), "--runs", runs],
        )
        assert code == 2
        assert out == ""
        assert "--runs" in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_non_integer_env_seed_exits_2_naming_it(self, capsys, workload_file, monkeypatch, command):
        monkeypatch.setenv("GAPSVT_SEED", "abc")
        argv = {
            "run": ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN)],
            "verify": ["verify", "--suite", "align", "--mechanism", "svt-gap", "--trials", "10"],
        }[command]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and "GAPSVT_SEED" in err
        # a flag overrides the variable, and budget takes no seed
        assert run_cli(capsys, argv + ["--seed", "3"])[0] == 0
        assert run_cli(capsys, ["budget", "--epsilon", "1", "--k", "1", "--mechanism", "svt"])[0] == 0

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_env_seed_is_a_domain_error(self, capsys, monkeypatch, value):
        """A rejected ``GAPSVT_SEED`` raises ``DomainError``, like every
        rejected input, and the CLI exits 2 with its message."""
        monkeypatch.setenv("GAPSVT_SEED", value)
        with pytest.raises(DomainError, match=f"GAPSVT_SEED must be a non-negative integer, got '{value}'"):
            cli._default_seed()
        code, out, err = run_cli(capsys, ["verify", "--suite", "align", "--mechanism", "svt", "--trials", "10"])
        assert code == 2
        assert out == "" and f"GAPSVT_SEED must be a non-negative integer, got '{value}'" in err

    @pytest.mark.parametrize("source", ["--seed", "GAPSVT_SEED"])
    def test_negative_seed_exits_2_naming_its_source(self, capsys, workload_file, monkeypatch, source):
        argv = ["run", "--mechanism", "svt-gap", "--workload", workload_file(GOLDEN)]
        if source == "--seed":
            argv += ["--seed", "-4"]
        else:
            monkeypatch.setenv("GAPSVT_SEED", "-4")
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and source in err

    @pytest.mark.parametrize("suite", ["align", "structural", "dp-exact", "dp-mc", "all"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_a_usage_error(self, capsys, suite, trials):
        code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--mechanism", "svt", "--trials", trials])
        assert code == 2
        assert out == "" and "--trials" in err

    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_budget_rejects_unusable_epsilon(self, capsys, epsilon):
        code, out, err = run_cli(capsys, ["budget", "--epsilon", epsilon, "--k", "1", "--mechanism", "adaptive-gap"])
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_integer_noise_too_wide_to_sample_exits_2(self, capsys, workload_file):
        # at epsilon 1e-300 every dlap scale is so wide that exp(-1/scale)
        # rounds to 1; continuous noise still samples there
        payload = {**GOLDEN, "epsilon": 1e-300, "noise": "dlap"}
        code, out, err = run_cli(capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload)])
        assert code == 2
        assert out == ""
        assert "'threshold'" in err and "p <= 0" not in err
        payload["noise"] = "laplace"
        code, out, _ = run_cli(capsys, ["run", "--mechanism", "svt-gap", "--workload", workload_file(payload)])
        assert code == 0 and strict_json_lines(out)

    @pytest.mark.parametrize(
        "argv",
        [["run", "--mechanism", "svt-gap"], ["verify", "--suite", "dp-mc", "--mechanism", "svt-gap", "--trials", "10000"]],
        ids=["run", "dp-mc"],
    )
    def test_subnormal_epsilon_exits_2_naming_the_role(self, capsys, workload_file, argv):
        # 1/epsilon of the threshold role's 5e-321 is past the largest float
        payload = {"pairs": [[1, 0], [0, 1]], "threshold": 0, "k": 1, "epsilon": 1e-320, "noise": "dlap"}
        code, out, err = run_cli(capsys, [*argv, "--workload", workload_file(payload)])
        assert code == 2
        assert out == ""
        assert "noise role 'threshold' has epsilon 5e-321" in err

    def test_integer_noise_whose_p_rounds_to_one_is_zero(self, capsys, workload_file):
        # at epsilon 100 the threshold role's epsilon is 50: 1 - exp(-50)
        # rounds to p = 1, both geometrics are certain and the noise is 0
        payload = {"pairs": [[1, 0], [0, 1]], "threshold": 0, "k": 1, "epsilon": 100, "noise": "dlap"}
        code, out, _ = run_cli(capsys, ["run", "--mechanism", "svt-gap", "--seed", "3", "--workload", workload_file(payload)])
        assert code == 0
        record = json.loads(out)
        assert record["answers"] == [{"gap": 1, "branch": "plain"}] and record["consumed"] == 2

    def test_infinite_log_ratio_keeps_the_verdict_and_strict_json(self, capsys, workload_file):
        # at epsilon 2000 the integer noise underflows to 0: the outputs on
        # the two sides are disjoint and the log ratio is infinite
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 2000, "noise": "dlap"}
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "dp-exact", "--mechanism", "svt-gap", "--workload", workload_file(payload)],
        )
        assert code == 1
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["verdict"] == "fail"
        assert report["max_log_ratio"] == "inf"


# JSON values a workload file may hold where a number belongs
_MALFORMED = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, 10**400, -(10**400)]),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
)
_FIELDS = ("threshold", "epsilon", "sigma", "k", "pair")


class TestMalformedInputFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        mechanism=st.sampled_from(["svt-gap", "svt", "adaptive-gap"]),
        noise=st.sampled_from(["laplace", "dlap"]),
        edits=st.dictionaries(st.sampled_from(_FIELDS), _MALFORMED, min_size=1, max_size=3),
        side=st.integers(min_value=0, max_value=1),
    )
    def test_exit_code_is_0_or_2_and_stdout_is_strict_json(self, capsys, tmp_path, mechanism, noise, edits, side):
        payload = {"pairs": [[5, 4], [3, 3]], "threshold": 4, "k": 1, "epsilon": 1.0, "sigma": 2, "noise": noise}
        for name, value in edits.items():
            if name == "pair":
                payload["pairs"] = [[5, 4], [value, value] if side else [3, value]]
            else:
                payload[name] = value
        try:
            load_workload_dict(json.loads(json.dumps(payload)))
        except GapSvtError:
            pass
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(
            capsys, ["run", "--mechanism", mechanism, "--workload", str(path), "--seed", "5", "--runs", "2"]
        )
        assert code in (0, 2)
        if any(isinstance(v, float) and not math.isfinite(v) for v in edits.values()):
            assert code == 2
        records = strict_json_lines(out)
        if code == 0:
            assert len(records) == 2


class TestBudgetCommand:
    def test_svt_table(self, capsys):
        code, out, _ = run_cli(capsys, ["budget", "--epsilon", "1", "--k", "1", "--mechanism", "svt-gap"])
        assert code == 0
        assert "eps0=0.5" in out and "eps1=0.25" in out and "exact=True" in out

    def test_adaptive_table(self, capsys):
        code, out, _ = run_cli(
            capsys, ["budget", "--epsilon", "1", "--k", "1", "--mechanism", "adaptive-gap"]
        )
        assert code == 0
        assert "eps0=0.5" in out and "eps1=0.125" in out and "eps2=0.25" in out

    def test_nonpositive_epsilon_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["budget", "--epsilon", "0", "--k", "1", "--mechanism", "svt-gap"])
        assert code == 2
        assert "epsilon" in err


class TestVerifyCommand:
    def test_align_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "align", "--mechanism", "svt-gap", "--trials", "1500", "--seed", "7"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["checks_run"] == 3000

    def test_injected_mutation_fails_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "align", "--mechanism", "svt-gap", "--trials", "5000",
             "--seed", "7", "--inject-mutation", "threshold-shift"],
        )
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert report["witness"]["workload"]["pairs"]
        assert report["witness"]["tape"]["per_query"]

    def test_unknown_mutation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["verify", "--suite", "align", "--mechanism", "svt-gap", "--trials", "100",
             "--seed", "7", "--inject-mutation", "flip-everything"],
        )
        assert code == 2
        assert "flip-everything" in err

    def test_unknown_mutation_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown mutation 'flip-everything'; expected one of threshold-shift"):
            cli._parse_mutation("flip-everything")
        assert cli._parse_mutation(None) is None

    def test_dp_exact_on_workload_file(self, capsys, workload_file):
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 1.0, "noise": "dlap"}
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "dp-exact", "--mechanism", "svt-gap",
             "--workload", workload_file(payload), "--seed", "1"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_log_ratio"] <= 1.0 + 1e-4

    @pytest.mark.parametrize("mechanism", ["svt", "svt-gap"])
    def test_dp_exact_ignores_sigma_the_mechanism_never_reads(self, capsys, workload_file, mechanism):
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 1.0, "noise": "dlap"}
        argv = ["verify", "--suite", "dp-exact", "--mechanism", mechanism, "--seed", "1", "--workload"]
        code, out, _ = run_cli(capsys, argv + [workload_file(payload)])
        code_sigma, out_sigma, _ = run_cli(capsys, argv + [workload_file({**payload, "sigma": 2.5})])
        assert code == code_sigma == 0
        report, report_sigma = json.loads(out), json.loads(out_sigma)
        assert report_sigma["notes"].pop("workload")["sigma"] == 2.5
        report["notes"].pop("workload")
        assert report_sigma == report

    def test_dp_exact_requires_dlap(self, capsys, workload_file):
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 1.0, "noise": "laplace"}
        argv = ["verify", "--suite", "dp-exact", "--mechanism", "svt-gap", "--workload", workload_file(payload), "--seed", "1"]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "dlap" in err
        args = build_parser().parse_args(argv)
        with pytest.raises(DomainError, match="dlap"):
            args.func(args)

    def test_over_the_cell_cap_exits_2_with_empty_stdout(self, capsys, workload_file):
        payload = {"pairs": [[1, 0], [0, 1], [1, 1]], "threshold": 0, "k": 3,
                   "epsilon": 1.0, "noise": "dlap"}
        code, out, err = run_cli(
            capsys,
            ["verify", "--suite", "dp-exact", "--mechanism", "svt-gap",
             "--workload", workload_file(payload), "--seed", "1"],
        )
        assert code == 2
        assert out == ""
        assert "cells" in err

    def test_past_the_exact_integer_range_exits_2_without_a_warning(self, capsys, workload_file):
        """1e308 used to reach the kernel, warn on an invalid cast and fail
        on its non-integer gaps; it is refused, naming the limit, first."""
        payload = {"pairs": [[1e308, 1e308]], "threshold": 0, "k": 1, "epsilon": 1.0, "noise": "dlap"}
        argv = ["verify", "--suite", "dp-exact", "--mechanism", "svt-gap", "--workload", workload_file(payload)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "2**53" in err and "value 1e+308" in err and "int-encoded" not in err
        assert caught == []

    def test_dp_mc_past_the_int64_answer_codes_exits_2(self, capsys, workload_file):
        """At 2**62 the answer codes wrapped and the suite passed."""
        payload = {"pairs": [[2**62, 2**62]], "threshold": 0, "k": 1, "epsilon": 1.0, "noise": "dlap"}
        argv = ["verify", "--suite", "dp-mc", "--mechanism", "svt-gap", "--workload", workload_file(payload), "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "2**61" in err and "value 4611686018427387904" in err

    def test_grid_budget_is_not_an_option(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify", "--suite", "dp-exact", "--mechanism", "svt-gap", "--grid-budget", "5"],
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --grid-budget" in err

    @pytest.mark.parametrize("suite", ["dp-exact", "dp-mc"])
    def test_adaptive_without_sigma_exits_2(self, capsys, workload_file, suite):
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 1.0, "noise": "dlap"}
        code, out, err = run_cli(
            capsys,
            ["verify", "--suite", suite, "--mechanism", "adaptive-gap",
             "--workload", workload_file(payload), "--seed", "1"],
        )
        assert code == 2
        assert out == ""
        assert "adaptive mechanism requires workload.sigma" in err

    def test_all_suites_read_the_workload_file_once(self, capsys, workload_file, monkeypatch):
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 1.0, "noise": "dlap"}
        path = workload_file(payload)
        reads = []
        load = cli.load_workload_file
        monkeypatch.setattr(cli, "load_workload_file", lambda p: reads.append(p) or load(p))
        argv = ["verify", "--mechanism", "svt-gap", "--trials", "200", "--seed", "1", "--workload", path, "--suite"]
        code, out, _ = run_cli(capsys, argv + ["all"])
        assert code == 0 and reads == [path]
        suites = [r["suite"] for r in json.loads(out)["suites"]]
        assert suites == ["align", "cost", "structural", "dp-exact", "dp-mc"]
        code, _, _ = run_cli(capsys, argv + ["align"])
        assert code == 0 and reads == [path]

    @pytest.mark.parametrize("edit, message", [({"noise": "laplace"}, "noise='dlap'"), ({"sigma": None}, "requires workload.sigma")])
    def test_all_suites_refuse_the_workload_before_the_trials_run(self, capsys, workload_file, monkeypatch, edit, message):
        payload = {"pairs": [[1, 0]], "threshold": 0, "k": 1, "epsilon": 1.0, "sigma": 1, "noise": "dlap", **edit}
        monkeypatch.setattr(cli, "run_trial_suites", lambda *args: pytest.fail("the trial suites ran"))
        argv = ["verify", "--suite", "all", "--mechanism", "adaptive-gap", "--workload", workload_file(payload)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and message in err

    def test_dp_mc_suite(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "dp-mc", "--mechanism", "svt-gap", "--trials", "10000", "--seed", "2"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "dp-mc"

    def test_structural_suite(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "structural", "--mechanism", "adaptive-gap",
             "--trials", "800", "--seed", "3"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"
