"""End-to-end checks of the command-line interface.

Every test drives ``main(argv)`` directly and inspects the exit code plus
captured stdout/stderr, so the full parse-dispatch-emit path is covered.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from qhaar.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def letters(labels, factors=None):
    factors = factors or ["A"] * len(labels)
    return [
        {"label": label, "sign": "1*"[t % 2], "factor": factor}
        for t, (label, factor) in enumerate(zip(labels, factors))
    ]


# a valid one-family dense scenario; each bad case below patches top-level keys
BASE_SCENARIO = {
    "name": "bad",
    "flavor": "quantum",
    "algebra": {"kind": "dense", "dim": 1},
    "families": {"A": {"constructor": "diagonal_constant", "cell": [["1"]]}},
    "word": letters([1, 1]),
    "n_range": [3, 4],
}


# the 2x2 identity over the dim-1 dense algebra of BASE_SCENARIO
IDENTITY_2 = [[[["1"]], [["0"]]], [[["0"]], [["1"]]]]


def entry(text):
    return {
        "algebra": {"kind": "matrix_unit"},
        "families": {"A": {"constructor": "matrix_unit_pattern", "entry": text}},
    }


# seven diagrams per entry; B is A with the two systems swapped
SEVEN_DIAGRAMS = (
    "E(1, j, i) + E(1, i, j) + E(2, i, j) + E(1, i, i) + E(2, j, j)"
    " + E(1, i, j)*E(2, j, i) + E(1, j, j)*E(2, i, i)"
)
SEVEN_DIAGRAMS_SWAPPED = (
    "E(2, j, i) + E(2, i, j) + E(1, i, j) + E(2, i, i) + E(1, j, j)"
    " + E(2, i, j)*E(1, j, i) + E(2, j, j)*E(1, i, i)"
)
# an exact value near 1e192, whose fourth moment no float can hold
HUGE = "99999999 ** 8 * 99999999 ** 8 * 99999999 ** 8"
# 3e77: the deviation fits a float, N^2 times its norm does not
LARGE = " * ".join(["10 ** 7"] * 11 + ["3"])


BAD_SCENARIOS = [
    ("classical-two-labels", {"flavor": "classical", "word": letters([1, 2])},
     "word: classical scenarios use one unitary label"),
    ("over-table-cap", {"flavor": "classical", "word": letters([1] * 8)},
     "word: classical words have at most 6 letters, got 8"),
    ("multi-label-over-cap", {"word": letters([1, 2] * 5)},
     "word: quantum words have at most 8 letters, got 10"),
    ("entry-system-3", entry("E(3, i, j)"), "family A: system must be 1 or 2"),
    ("entry-index-out-of-range", entry("E(1, j, i + 1)"),
     "family A: matrix-unit indices out of range"),
    ("factor-divides-by-zero", {"word": letters([1, 1], ["A / 0", "A"])},
     "word letter 1: division by zero"),
    ("factor-unknown-symbol", {"word": letters([1, 1], ["A", "C"])},
     "word letter 2: unknown name 'C'"),
    ("cell-divides-by-zero",
     {"families": {"A": {"constructor": "diagonal_constant", "cell": [["1/0"]]}}},
     "family A: division by zero"),
    ("exponent-over-cap", {"word": letters([1, 1], ["A ** 9", "A"])},
     "word letter 1: exponents are integer literals from 0 to 8"),
    ("nested-power", {"word": letters([1, 1], ["A", "(A ** 2) ** 2"])},
     "word letter 2: the base of a power cannot hold another power"),
    ("nesting-over-cap", {"word": letters([1, 1], ["A", "+".join(["A"] * 300)])},
     "word letter 2: expressions nest at most 200 levels deep"),
    ("top-level-list", [1, 2], "a scenario file holds one JSON object"),
    ("explicit-wrong-shape",
     {"families": {"A": {"constructor": "explicit", "matrices": {"2": [[[["1"]]]]}}}},
     "family A: the explicit matrix for N = 2 must be 2x2"),
    # a second spelling of a size used to replace the first matrix silently
    ("explicit-key-leading-zero",
     {"families": {"A": {"constructor": "explicit",
                         "matrices": {"2": IDENTITY_2, "02": IDENTITY_2}}}},
     "family A: 'matrices' keys are sizes from 2 to 16, got '02'"),
    ("explicit-key-not-a-number",
     {"families": {"A": {"constructor": "explicit", "matrices": {"abc": IDENTITY_2}}}},
     "family A: 'matrices' keys are sizes from 2 to 16, got 'abc'"),
    ("explicit-key-negative",
     {"families": {"A": {"constructor": "explicit", "matrices": {"-1": IDENTITY_2}}}},
     "family A: 'matrices' keys are sizes from 2 to 16, got '-1'"),
    ("explicit-key-over-cap",
     {"families": {"A": {"constructor": "explicit", "matrices": {"17": IDENTITY_2}}}},
     "family A: 'matrices' keys are sizes from 2 to 16, got '17'"),
    ("n-range-over-cap", {"n_range": [2, 1000000000]},
     "n_range: sizes are capped at 16, got 1000000000"),
    # JSON true is a Python bool, which isinstance(.., int) accepts
    ("dim-true", {"algebra": {"kind": "dense", "dim": True}},
     "dense scenarios need an integer dim between 1 and 4"),
    ("label-true", {"word": letters([True, 1])}, "letter labels are integers starting at 1"),
    # a list name used to be printed through str() as "['x']"
    ("name-not-a-string", {"name": ["x"]}, "name must be a string"),
    # 7^8 choices per loop count, about an hour per size without the bound
    ("loop-choices-over-cap",
     {"algebra": {"kind": "matrix_unit"},
      "families": {"A": {"constructor": "matrix_unit_pattern", "entry": SEVEN_DIAGRAMS},
                   "B": {"constructor": "matrix_unit_pattern", "entry": SEVEN_DIAGRAMS_SWAPPED}},
      "word": letters([1] * 8, ["A", "B"] * 4)},
     "loop counting needs 5764801 diagram choices, over MAX_LOOP_CHOICES = 100000"),
    # the quantum flip word with a non-invariant A takes the transfer scan
    # for every sum; unbounded, eight letters ran for hours over N = 2..16
    ("scan-steps-over-cap",
     {"algebra": {"kind": "matrix_unit"},
      "families": {"A": {"constructor": "matrix_unit_pattern", "entry": "E(1, j, i) + E(2, i, 1)"},
                   "B": {"constructor": "matrix_unit_pattern", "entry": "E(2, j, i)"}},
      "word": letters([1] * 8, ["A", "B"] * 4), "n_range": [6, 11]},
     "the transfer scan needs 383688 steps, over MAX_SCAN_STEPS = 200000"),
    ("norm-over-float-range",
     {"families": {"A": {"constructor": "diagonal_pattern", "cells": [[[HUGE]], [["0"]]]}},
      "word": letters([1] * 4)},
     "N = 3: exact values exceed the float range of the spectral norm"),
    ("n2-norm-over-float-range",
     {"families": {"A": {"constructor": "diagonal_pattern", "cells": [[[LARGE]], [["0"]]]}},
      "word": letters([1] * 4)},
     "N = 3: exact values exceed the float range of the spectral norm"),
]


# exact_digest of `freeness` on each shipped scenario at its default range,
# each of six or more sizes; a change to any exact output shows here
PINNED_FREENESS = {
    "classical_flip": "0523843ddb73531dbaef0cc13332aa512a8cce01d44899944d8cbffaa2070db1",
    "dense_circulant": "356f867e9c2ad5083fc5437a9cd3d22a4aef63987c1a0a058447d7ec22873442",
    "diagonal_pattern": "5d6782a45688ba3f42866f9b49461601a1f0c0eb0dc61e1f882c72e9d4aac925",
    "infinitesimal_flip": "558337abdf3de75bc2dd6c53626e30601e23b557b3163528b319614e51076ca0",
    "matrix_unit_flip": "3990ce13cb278fa63138e99acb42e9738e3145555b6b264bdded8d9ed859d3b9",
}


def exact_digest(code: int, payload: dict) -> str:
    """Digest of each row's n and value, slope_ok, n2_bounded, verdict, the
    verdicts block and the exit code; the float fields are left out."""
    results = payload["results"]
    exact = [
        [[row["n"], row["value"]] for row in results["rows"]],
        results["slope_ok"], results["n2_bounded"], results["verdict"],
        payload["verdicts"], code,
    ]
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()


# digest of every run in pinned_flavor_runs: the weingarten and partitions
# output over every sign pattern up to each flavor's table cap, the moments
# of the alternating words, and three flavor-dependent error lines
PINNED_FLAVOR_RUNS = "7e569f17776045f748bdbc6579dc075e56e1a7bcfd515d9f58d84328fa78d3f5"


def pinned_flavor_runs():
    for flavor, cap in (("quantum", 8), ("classical", 6)):
        for k in range(1, cap + 1):
            for signs in itertools.product("1*", repeat=k):
                for command in ("weingarten", "partitions"):
                    yield [command, "--flavor", flavor, "--eps", "".join(signs)]
        for m in range(1, cap // 2 + 1):
            yield ["moment", "--flavor", flavor, "--m", str(m)]
    yield ["weingarten", "--flavor", "orthogonal", "--eps", "1*"]
    yield ["moment", "--flavor", "classical", "--m", "4"]
    yield ["freeness", "--scenario", "classical-two-labels.json"]


# SHA-256 of stdout of each subcommand's CSV form; the freeness and quantum
# counterexample rows carry repr() of float norms, so these pin those too
PINNED_CSV = {
    "selftest": "306ef7db4877ce49e9d7089021ed63e34d5fb90f9701ecd1d0ff68466ba28735",
    "partitions --m 4": "5bff352405fd98bae05223545b839f62872bd8ab65e64a83f7c24f2828db2dca",
    "partitions --eps 1*1*1* --flavor classical":
        "dd0f05578d7b7a5301bb116e1d6f4a8896778c3195bfe214b645377d79d123bc",
    "weingarten --eps 1*1*1*1*":
        "f69a22431f1d271ef8dd2fc6f095d1333621e9c5b13274c3052d0435045157fd",
    "moment --m 2": "9a380263d627ee33ca87d4d7d011ee70c6d8ed47c1dbaa4d93c7f0f9a61919a4",
    "moment --m 2 --n-min 2 --n-max 9":
        "e2913ad3746e414148a0e2587384047713476dc98e08d3e91e991b6488c603e9",
    "counterexample --n-min 4 --n-max 6":
        "93bd190285dba3f01e040d4262ecf9bd897de136fbb5161d54ea1604a2a0b113",
    "counterexample --flavor classical --n-min 4 --n-max 6":
        "1d4835b157d05420c72b32e1331f90da71508ba34106650d755878696018372f",
    "freeness --scenario matrix_unit_flip":
        "8c45dc23b5740acad7f9cfd8cf0be426f6e45bea57ca4cf430931fa6312bc0ef",
    "freeness --scenario dense_circulant":
        "29e57424ececd00463fd4a547945077d866a22119a3a3b00d3e617f272f18045",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


class TestEnvelope:
    def test_top_level_keys(self, capsys):
        code, payload = run_json(capsys, ["partitions", "--m", "2"])
        assert code == 0
        assert sorted(payload) == ["command", "parameters", "results", "verdicts"]
        assert payload["command"] == "partitions"

    def test_verdict_commands_fill_verdicts(self, capsys):
        code, payload = run_json(capsys, ["selftest"])
        assert code == 0
        assert payload["verdicts"] == {"all_passed": True}

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, err = run(
            capsys,
            ["weingarten", "--eps", "1*1*", "--out", str(target)],
        )
        assert code == 0
        assert out == "" and err == ""
        payload = json.loads(target.read_text())
        assert payload["command"] == "weingarten"

    def test_repeat_invocations_are_byte_identical(self, capsys, tmp_path):
        argv = ["moment", "--m", "2", "--n-min", "2", "--n-max", "6"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


    def test_flavor_output_is_pinned(self, capsys, tmp_path, monkeypatch):
        # argv, exit code, stdout and stderr of each run, hashed in order
        monkeypatch.chdir(tmp_path)
        scenario = {**BASE_SCENARIO, "flavor": "classical", "word": letters([1, 2])}
        Path("classical-two-labels.json").write_text(json.dumps(scenario))
        digest = hashlib.sha256()
        for argv in pinned_flavor_runs():
            code, out, err = run(capsys, argv)
            digest.update(json.dumps([argv, code, out, err]).encode())
        assert digest.hexdigest() == PINNED_FLAVOR_RUNS

    def test_csv_output_is_pinned(self, capsys):
        digests = {}
        for command in PINNED_CSV:
            argv = command.split() + ["--format", "csv"]
            if argv[0] == "freeness":
                argv[2] = str(SCENARIO_DIR / f"{argv[2]}.json")
            code, out, err = run(capsys, argv)
            assert err == "", command
            digests[command] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == PINNED_CSV


class TestPartitions:
    def test_noncrossing_count(self, capsys):
        code, payload = run_json(capsys, ["partitions", "--m", "3"])
        assert code == 0
        results = payload["results"]
        assert results["kind"] == "nc"
        assert results["count"] == 5
        assert len(results["members"]) == 5

    def test_quantum_pairing_family(self, capsys):
        code, payload = run_json(capsys, ["partitions", "--eps", "1*1*1*"])
        assert code == 0
        results = payload["results"]
        assert results["kind"] == "nc2_eps"
        assert results["count"] == 5
        assert "{{1,4},{2,5},{3,6}}" not in results["members"]

    def test_classical_pairing_family_has_crossing(self, capsys):
        code, payload = run_json(
            capsys,
            ["partitions", "--eps", "1*1*1*", "--flavor", "classical"],
        )
        assert code == 0
        results = payload["results"]
        assert results["kind"] == "p2_eps"
        assert "{{1,4},{2,5},{3,6}}" in results["members"]

    def test_csv_lists_indexed_members(self, capsys):
        code, out, err = run(capsys, ["partitions", "--m", "2", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,partition"
        assert len(lines) == 3

    def test_missing_m_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["partitions"])
        assert code == 2
        assert "--m" in err

    @pytest.mark.parametrize("m, message", [
        ("-1", "partition ground size must be nonnegative"),
        ("13", "noncrossing enumeration capped at 12 points, got 13"),
    ])
    def test_m_out_of_range(self, capsys, m, message):
        code, out, err = run(capsys, ["partitions", "--m", m])
        assert code == 2
        assert out == ""
        assert err == f"error: --m: {message}\n"

    def test_inconsistent_m_and_eps(self, capsys):
        for command in ("partitions", "moment"):
            for m, eps in (("2", "1*1*1*"), ("3", "1*")):
                code, out, err = run(capsys, [command, "--m", m, "--eps", eps])
                assert code == 2
                assert out == ""
                assert err == "error: --m: inconsistent with --eps; pairings need len(eps) = 2m\n"
            code, out, err = run(capsys, [command, "--m", "2", "--eps", "1*1*"])
            assert code == 0


class TestWeingarten:
    def test_quantum_two_pair_entries(self, capsys):
        code, payload = run_json(
            capsys,
            ["weingarten", "--flavor", "quantum", "--eps", "1*1*"],
        )
        assert code == 0
        wg = payload["results"]["wg"]
        assert wg[0][0] == "1/(n^2 - 1)"
        assert wg[0][1] == "-1/(n^3 - n)"
        assert payload["results"]["gram"][0][1] == "n"

    def test_csv_header(self, capsys):
        code, out, err = run(
            capsys,
            ["weingarten", "--eps", "1*1*", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pi,sigma,gram,wg"
        # one row per ordered pair of the two noncrossing pairings
        assert len(lines) == 1 + 2 ** 2
        assert lines[1] == '"{{1,2},{3,4}}","{{1,2},{3,4}}",n^2,1/(n^2 - 1)'

    def test_missing_eps(self, capsys):
        code, out, err = run(capsys, ["weingarten"])
        assert code == 2
        assert "--eps" in err

    def test_odd_eps_rejected(self, capsys):
        code, out, err = run(capsys, ["weingarten", "--eps", "1*1"])
        assert code == 2
        assert "--eps" in err

    def test_bad_flavor_named(self, capsys):
        code, out, err = run(capsys, ["weingarten", "--eps", "1*1*", "--flavor", "x"])
        assert code == 2
        assert "--flavor" in err


class TestMoment:
    def test_alternating_first_moment_is_reciprocal(self, capsys):
        code, payload = run_json(
            capsys,
            ["moment", "--m", "1", "--n-min", "2", "--n-max", "5"],
        )
        assert code == 0
        values = payload["results"]["values"]
        assert values == {"2": "1/2", "3": "1/3", "4": "1/4", "5": "1/5"}

    def test_classical_sixth_moment_closed_form(self, capsys):
        code, payload = run_json(
            capsys,
            ["moment", "--flavor", "classical", "--eps", "1*1*1*"],
        )
        assert code == 0
        assert payload["results"]["moment"] == "6/(n^3 + 3n^2 + 2n)"

    def test_csv_with_range(self, capsys):
        code, out, err = run(
            capsys,
            ["moment", "--m", "1", "--n-min", "3", "--n-max", "4", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines() == ["n,value", "3,1/3", "4,1/4"]

    def test_csv_without_range(self, capsys):
        code, out, err = run(capsys, ["moment", "--m", "1", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["moment", "1/n"]

    def test_requires_eps_or_m(self, capsys):
        code, out, err = run(capsys, ["moment"])
        assert code == 2
        assert "--eps" in err

    def test_bad_range_rejected(self, capsys):
        code, out, err = run(
            capsys,
            ["moment", "--m", "1", "--n-min", "5", "--n-max", "3"],
        )
        assert code == 2
        assert "--n-max" in err

    def test_n_max_over_cap(self, capsys):
        code, out, err = run(
            capsys,
            ["moment", "--m", "1", "--n-min", "2", "--n-max", "17"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-max: capped at 16 to keep exact evaluation tractable\n"

    def test_n_min_alone_over_default_top(self, capsys):
        # no --n-max was given, so the error names --n-min
        code, out, err = run(capsys, ["moment", "--m", "2", "--n-min", "12"])
        assert code == 2
        assert out == ""
        assert err == "error: --n-min: must be at most 8, the default --n-max\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--m", "5"], "quantum tables support at most 8 letters (m <= 4), got 5"),
            (
                ["--m", "4", "--flavor", "classical"],
                "classical tables support at most 6 letters (m <= 3), got 4",
            ),
            (
                ["--m", "1000000000"],
                "quantum tables support at most 8 letters (m <= 4), got 1000000000",
            ),
        ],
        ids=["quantum-5", "classical-4", "huge"],
    )
    def test_m_over_cap_blames_m(self, capsys, argv, message):
        code, out, err = run(capsys, ["moment"] + argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --m: {message}\n"


class TestFreeness:
    def test_quantum_flip_converges(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "matrix_unit_flip.json"),
                "--n-max", "7",
            ],
        )
        assert code == 0
        assert payload["verdicts"]["verdict"] is True
        rows = payload["results"]["rows"]
        assert [r["n"] for r in rows] == [2, 3, 4, 5, 6, 7]
        assert rows[-1]["delta"] < rows[0]["delta"]

    def test_classical_flip_fails_quantum_criterion(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "classical_flip.json"),
                "--n-min", "4",
                "--n-max", "9",
            ],
        )
        assert code == 1
        assert payload["verdicts"]["verdict"] is False

    def test_csv_report(self, capsys):
        code, out, err = run(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "matrix_unit_flip.json"),
                "--n-max", "7",
                "--format", "csv",
            ],
        )
        assert code == 0
        assert out.splitlines()[0] == "N,delta,N2_delta"

    def test_csv_has_one_line_per_size(self, capsys):
        code, out, err = run(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "matrix_unit_flip.json"),
                "--n-min", "2",
                "--n-max", "4",
                "--format", "csv",
            ],
        )
        assert code == 1  # three sizes are too few for a verdict
        lines = out.splitlines()
        assert lines[0] == "N,delta,N2_delta"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3", "4"]

    @pytest.mark.parametrize("name", ["diagonal_pattern", "matrix_unit_flip"])
    def test_eight_letter_two_label_scenario(self, capsys, tmp_path, name):
        # the quantum table cap is the only letter limit of a multi-label word
        data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        word = letters([1] * 4 + [2] * 4, sorted(data["families"]) * 4)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "word": word, "n_range": [2, 7]}))
        code, payload = run_json(capsys, ["freeness", "--scenario", str(path)])
        assert code == 0
        assert payload["verdicts"]["verdict"] is True
        assert payload["results"]["rows"][0]["delta"] > 0

    def test_missing_scenario_flag(self, capsys):
        code, out, err = run(capsys, ["freeness"])
        assert code == 2
        assert "--scenario" in err

    def test_unreadable_scenario_path(self, capsys):
        code, out, err = run(capsys, ["freeness", "--scenario", "/does/not/exist.json"])
        assert code == 2
        assert "--scenario" in err

    def test_verdict_agrees_with_exit_code(self, capsys):
        # the deviation grows with N: slope fails while n2_bounded passes
        code, payload = run_json(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "classical_flip.json"),
                "--n-min", "4",
                "--n-max", "6",
            ],
        )
        assert code == 1
        assert payload["results"]["slope_ok"] is False
        assert payload["results"]["n2_bounded"] is True
        assert payload["results"]["verdict"] is False
        assert payload["verdicts"]["verdict"] is False

    @pytest.mark.parametrize(
        "name, n_min, n_max",
        [("classical_flip", "5", "5"), ("matrix_unit_flip", "4", "8")],
        ids=["one-size", "five-sizes"],
    )
    def test_fewer_than_six_sizes_do_not_pass(self, capsys, name, n_min, n_max):
        # both diagnostics pass on so little evidence, the verdict does not
        code, payload = run_json(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / f"{name}.json"),
                "--n-min", n_min,
                "--n-max", n_max,
            ],
        )
        assert code == 1
        assert payload["verdicts"] == {"slope_ok": True, "n2_bounded": True, "verdict": False}
        assert payload["results"]["verdict"] is False

    @pytest.mark.parametrize("name", sorted(PINNED_FREENESS))
    def test_shipped_scenario_output_is_pinned(self, capsys, name):
        code, payload = run_json(
            capsys, ["freeness", "--scenario", str(SCENARIO_DIR / f"{name}.json")]
        )
        assert exact_digest(code, payload) == PINNED_FREENESS[name]

    def test_pole_blames_n_min(self, capsys):
        code, out, err = run(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "classical_flip.json"),
                "--n-min", "2",
                "--n-max", "3",
            ],
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-min: denominator vanishes at n = 2\n"

    @pytest.mark.parametrize("name", ["classical_flip", "dense_circulant"])
    @pytest.mark.parametrize("n_max", [None, "5"])
    def test_pole_in_scenario_range_blames_n_range(self, capsys, tmp_path, name, n_max):
        # without --n-min the smallest size comes from the file's own n_range
        scenario = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        scenario.update(flavor="classical", n_range=[2, 6])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        argv = ["freeness", "--scenario", str(path)]
        code, out, err = run(capsys, argv + (["--n-max", n_max] if n_max else []))
        assert code == 2
        assert out == ""
        assert err == "error: --scenario: n_range: denominator vanishes at n = 2\n"

    def test_diagonal_constant_is_the_one_cell_diagonal_pattern(self, capsys, tmp_path):
        cell = [["1", "i"], ["0", "-1/2"]]
        path = tmp_path / "family.json"
        runs = []
        for family in (
            {"constructor": "diagonal_constant", "cell": cell},
            {"constructor": "diagonal_pattern", "cells": [cell]},
        ):
            scenario = {
                **BASE_SCENARIO,
                "algebra": {"kind": "dense", "dim": 2},
                "families": {"A": family},
                "word": letters([1, 1, 1, 1]),
                "n_range": [2, 7],
            }
            path.write_text(json.dumps(scenario))
            runs.append(run(capsys, ["freeness", "--scenario", str(path)]))
        assert runs[0] == runs[1]
        assert runs[0][2] == ""

    def test_n_max_over_cap(self, capsys):
        code, out, err = run(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "dense_circulant.json"),
                "--n-max", "17",
            ],
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-max: capped at 16 to keep exact evaluation tractable\n"

    def test_n_min_alone_over_scenario_top(self, capsys):
        code, out, err = run(
            capsys,
            [
                "freeness",
                "--scenario", str(SCENARIO_DIR / "dense_circulant.json"),
                "--n-min", "12",
            ],
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-min: must be at most 10, the default --n-max\n"

    @pytest.mark.parametrize(
        "patch, message",
        [case[1:] for case in BAD_SCENARIOS],
        ids=[case[0] for case in BAD_SCENARIOS],
    )
    def test_bad_scenario_exits_two(self, capsys, tmp_path, patch, message):
        scenario = {**BASE_SCENARIO, **patch} if isinstance(patch, dict) else patch
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, ["freeness", "--scenario", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: --scenario: {message}\n"


class TestCounterexample:
    def test_classical_stays_at_identity(self, capsys):
        code, out, err = run(
            capsys,
            [
                "counterexample",
                "--flavor", "classical",
                "--n-min", "4",
                "--n-max", "6",
                "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,norm,distance_from_one"
        for line in lines[1:]:
            n, norm, dist = line.split(",")
            assert abs(float(norm) - 1.0) < 1e-9
            assert float(dist) < 1e-9

    def test_quantum_decays_within_bound(self, capsys):
        code, payload = run_json(
            capsys,
            ["counterexample", "--flavor", "quantum", "--n-min", "4", "--n-max", "6"],
        )
        assert code == 0
        assert payload["verdicts"] == {"within_bound": True}
        rows = payload["results"]["rows"]
        norms = [r["norm"] for r in rows]
        assert norms == sorted(norms, reverse=True)
        assert all(r["norm"] <= 2.0 / r["n"] for r in rows)
        assert payload["results"]["crossing_in_family"] is False

    def test_classical_reports_crossing_pairing(self, capsys):
        code, payload = run_json(
            capsys,
            ["counterexample", "--flavor", "classical", "--n-min", "4", "--n-max", "4"],
        )
        assert code == 0
        assert payload["results"]["crossing_in_family"] is True
        assert payload["results"]["crossing_pairing"] == "{{1,4},{2,5},{3,6}}"

    def test_small_sizes_rejected(self, capsys):
        code, out, err = run(
            capsys,
            ["counterexample", "--flavor", "classical", "--n-min", "2", "--n-max", "4"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-min: denominator vanishes at n = 2\n"

    def test_quantum_runs_at_two(self, capsys):
        # the quantum value at N = 2 is (3N^2 - 4)/(N^4 - 2N^2) one() = one()
        code, payload = run_json(
            capsys,
            ["counterexample", "--flavor", "quantum", "--n-min", "2", "--n-max", "3"],
        )
        assert code == 0
        first = payload["results"]["rows"][0]
        assert (first["n"], first["norm"], first["distance_from_one"]) == (2, 1.0, 0.0)

    def test_cap_rejected(self, capsys):
        code, out, err = run(capsys, ["counterexample", "--n-max", "40"])
        assert code == 2
        assert "--n-max" in err

    @pytest.mark.parametrize("n_min", ["10", "20"])
    def test_n_min_alone_over_default_top(self, capsys, n_min):
        # 20 is also over the cap, but the range it leaves is empty first
        code, out, err = run(capsys, ["counterexample", "--n-min", n_min])
        assert code == 2
        assert out == ""
        assert err == "error: --n-min: must be at most 8, the default --n-max\n"


class TestSelftest:
    def test_exit_zero_and_all_pass(self, capsys):
        code, payload = run_json(capsys, ["selftest"])
        assert code == 0
        checks = payload["results"]["checks"]
        assert len(checks) >= 8
        assert all(c["ok"] for c in checks)
        prefixes = {c["name"].split(".")[0] for c in checks}
        assert prefixes == {"partitions", "exactalg", "weingarten", "opvalued", "freeness"}

    def test_csv_form(self, capsys):
        code, out, err = run(capsys, ["selftest", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,ok"
        assert all(line.endswith(",true") for line in lines[1:])


class TestParsing:
    def test_unknown_flag_is_usage_error(self, capsys):
        code = main(["partitions", "--m", "2", "--bogus"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code = main(["--help"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("partitions", "weingarten", "moment", "freeness",
                     "counterexample", "selftest"):
            assert name in out

    def test_bad_format_value(self, capsys):
        code = main(["selftest", "--format", "xml"])
        capsys.readouterr()
        assert code == 2
