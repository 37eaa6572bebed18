import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from decimal import Decimal
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import sweepkit.bench
import sweepkit.core
import sweepkit.fuss
import sweepkit.qtcatalan
import sweepkit.suites
from sweepkit import (
    BelowDiagonal,
    DyckPath,
    QTPolynomial,
    area,
    bounce,
    en_word,
    enumerate_paths,
    fiber_by_cutting,
    fiber_count,
    invert_fuss,
    make_frame,
    path_count,
    path_tableau,
    rank_complement,
    red,
    reduced_path_of,
    sw_to_steps,
    sw_word,
    sweep,
)
from sweepkit.bench import random_path
from sweepkit.cli import main
from sweepkit.core import _unchecked
from helpers import (FIG_EN, FIG_RANK_SEQUENCE, FIG_SW, FIG_WORD, coprime_frames, frame_paths,
                     fuss_frames, prefix_scan)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "stats", "--m", "7", "--n", "5", "--word", FIG_WORD)
        assert code == 0
        report = json.loads(out)
        assert report["dinv"] == 8
        assert tuple(report["rank_sequence"]) == FIG_RANK_SEQUENCE
        assert report["sw_word"] == FIG_SW
        assert report["en_word"] == FIG_EN

    @pytest.mark.parametrize("m, n, seed, digest", [
        (27, 13, 0, "09e525a7fc1f5f46a5f5a6149b7c3576bdac7e38adab6589957b713d72943fe0"),
        (29, 13, 1, "9bf486ccb3d430aa76cd17cbb1dc0612a4727db63aa09aec12234cb305e1b1ca"),
        (10001, 5000, 0, "ba3a38f7499d8cdde267653043eb76d9ee161993ba46de1fe0a8f2f614128b52"),
        (9999, 5000, 1, "d77f25e4aff323c2d82af1c4737fdf51d74924d291aa413c3ae18c7c62e8040b"),
    ])
    def test_stdout_is_pinned(self, capsys, m, n, seed, digest):
        # The report, key order included, whatever order its statistics are taken in.
        word = random_path(make_frame(m, n), random.Random(seed)).steps
        _, out, _ = run(capsys, "stats", "--m", str(m), "--n", str(n), "--word", word)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sorts_the_ranks_once(self, capsys, monkeypatch):
        # The words take the path's one rank sort; rank_sequence and dinv read it.
        sorts = []
        keys = sweepkit.core._rank_keys
        monkeypatch.setattr(sweepkit.core, "sorted",
                            lambda values: sorts.append("sorted") or sorted(values), raising=False)
        monkeypatch.setattr(sweepkit.core, "_rank_keys",
                            lambda *args: sorts.append("_rank_keys") or keys(*args))
        assert run(capsys, "stats", "--m", "7", "--n", "5", "--word", FIG_WORD)[0] == 0
        assert sorts == ["sorted"]

    def test_strip_all_zero(self, capsys):
        code, out, _ = run(capsys, "stats", "--m", "3", "--n", "1", "--word", "NEEE")
        report = json.loads(out)
        assert (report["area"], report["coarea"], report["dinv"]) == (0, 0, 0)

    def test_area_example(self, capsys):
        _, out, _ = run(capsys, "stats", "--m", "3", "--n", "2", "--word", "NNEEE")
        assert json.loads(out)["area"] == 1

    def test_sw_kind_rejects_ne_letters(self, capsys):
        code, out, err = run(capsys, "stats", "--m", "3", "--n", "1", "--word", "NEEE",
                             "--word-kind", "sw")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_word_exit_2(self, capsys):
        code, out, err = run(capsys, "stats", "--m", "7", "--n", "5")
        assert (code, out, err) == (2, "", "error: a path needs --m, --n and --word\n")

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "stats", "--m", "6", "--n", "4", "--word", "N" * 10)
        assert code == 2
        assert "error" in err

    def test_below_diagonal_exit_2(self, capsys):
        code, _, _ = run(capsys, "stats", "--m", "3", "--n", "2", "--word", "ENNEE")
        assert code == 2


class TestSweepInvert:
    def test_sweep_then_invert(self, capsys):
        _, out, _ = run(capsys, "sweep", "--m", "7", "--n", "5", "--word", FIG_WORD)
        image = json.loads(out)["steps"]
        _, out, _ = run(capsys, "invert", "--m", "7", "--n", "5", "--word", image,
                        "--method", "brute")
        assert json.loads(out)["steps"] == FIG_WORD

    def test_invert_sw_kind(self, capsys):
        _, out, _ = run(capsys, "invert", "--m", "7", "--n", "5",
                        "--word", FIG_SW, "--word-kind", "sw", "--method", "brute")
        assert json.loads(out)["steps"] == FIG_WORD

    def test_methods_agree_on_fuss(self, capsys):
        for method in ("fuss", "brute"):
            _, out, _ = run(capsys, "invert", "--m", "13", "--n", "4",
                            "--word", "NENEENEENEEEEEEEE", "--method", method)
            assert json.loads(out)["steps"] == "NEENENEEEENEEEEEE"

    def test_bipartite(self, capsys):
        _, out, _ = run(capsys, "invert", "--m", "7", "--n", "5",
                        "--word", FIG_SW, "--word-kind", "sw",
                        "--method", "bipartite", "--en-word", FIG_EN)
        report = json.loads(out)
        assert report["steps"] == FIG_WORD
        assert tuple(report["rank_sequence"]) == FIG_RANK_SEQUENCE

    def test_en_word_alone_rejected(self, capsys):
        code, _, _ = run(capsys, "invert", "--m", "7", "--n", "5",
                        "--word", FIG_EN, "--word-kind", "en")
        assert code == 2

    def test_brute_refuses_large_frame(self, capsys):
        # (41, 20) has about 1.02e14 paths.
        code, out, err = run(capsys, "invert", "--m", "41", "--n", "20",
                             "--word", "N" * 20 + "E" * 41, "--method", "brute")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_identity_on_strip(self, capsys):
        _, out, _ = run(capsys, "invert", "--m", "4", "--n", "1", "--word", "NEEEE")
        assert json.loads(out)["steps"] == "NEEEE"

    def test_only_brute_loads_the_oracle(self):
        # A fresh interpreter: importing the CLI does not compile the oracle.
        code = "import sys, sweepkit.cli; print('sweepkit.oracle' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n"

    def test_import_loads_no_web_stack(self):
        # render's title needs no XML escaping, so nothing pulls in xml.sax and with it urllib.
        unwanted = ("xml.sax", "urllib.request", "http.client", "ssl")
        code = f"import sys, sweepkit; print([m for m in {unwanted!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestTableauCommands:
    def test_tableau_golden(self, capsys):
        _, out, _ = run(capsys, "tableau", "--m", "13", "--n", "4",
                        "--word", "NENEENEENEEEEEEEE")
        data = json.loads(out)
        assert data["rows"] == [[1, 3, 6, 9], [2, 5, 10, 12], [4, 8, 13, 14], [7, 11, 15, 16]]

    def test_tableau_json_echo(self, capsys):
        blob = json.dumps({"k": 1, "n": 2, "sign": 1, "rows": [[1, 3], [2, 4]]})
        code, out, _ = run(capsys, "tableau", "--tableau-json", blob)
        assert code == 0
        assert json.loads(out) == json.loads(blob)

    def test_invalid_tableau_exit_2(self, capsys):
        blob = json.dumps({"k": 1, "n": 2, "sign": 1, "rows": [[2, 3], [1, 4]]})
        code, _, _ = run(capsys, "tableau", "--tableau-json", blob)
        assert code == 2

    def test_red_roundtrip(self, capsys):
        _, out, _ = run(capsys, "tableau", "--m", "13", "--n", "4",
                        "--word", "NENEENEENEEEEEEEE")
        _, out, _ = run(capsys, "red", "--tableau-json", out.strip())
        data = json.loads(out)
        assert data["rows"] == [[1, 3, 5], [2, 6, 8], [4, 9, 10], [7, 11, 12]]

    def test_fiber_golden(self, capsys):
        reduced = json.dumps({
            "k": 3, "n": 4, "sign": 1,
            "rows": [[1, 3, 6, 11], [2, 5, 9, 13], [4, 8, 12, 15], [7, 10, 14, 16]],
        })
        _, out, _ = run(capsys, "fiber", "--tableau-json", reduced)
        members = json.loads(out)
        assert len(members) == 7
        assert sorted(m["area"] for m in members) == [7, 8, 9, 10, 11, 12, 13]
        nine = [m for m in members if m["area"] == 11]
        assert nine[0]["bounce"] == 10

    def test_fiber_fills_each_member_once(self, capsys, monkeypatch):
        reduced = red(path_tableau(random_path(make_frame(27, 13), random.Random(0))))
        calls = []
        real = sweepkit.fuss._fill

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sweepkit.fuss, "_fill", counted)
        code, out, _ = run(capsys, "fiber", "--tableau-json", reduced.to_json())
        members = json.loads(out)
        assert code == 0 and len(members) == fiber_count(reduced) > 1
        # One fill checks the input and one builds each member's tableau, whose walk
        # spells the preimage that the bounce is the area of.
        assert len(calls) == 1 + len(members)

    @pytest.mark.parametrize("seed, digest", [
        (0, "6ffd0099f700e51aad57a6ebfa36530e31ee96f95ffb8e4090ba6d94ade6df67"),
        (1, "9293b4bdaa3b87e63f9683608bc65b55b58fb1c6558744d1b8f09505c08a4435"),
    ])
    def test_fiber_stdout_nests_each_tableau_as_its_json(self, capsys, seed, digest):
        # Byte for byte the output of nesting json.loads(T.to_json()) per member.
        reduced = red(path_tableau(random_path(make_frame(27, 13), random.Random(seed))))
        _, out, _ = run(capsys, "fiber", "--tableau-json", reduced.to_json())
        members = [{"tableau": json.loads(path_tableau(D).to_json()), "area": area(D),
                    "bounce": bounce(D)} for D in fiber_by_cutting(reduced)]
        assert out == json.dumps(members) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["red", "fiber"])
    def test_empty_tableau_json_exit_2(self, capsys, command):
        code, out, err = run(capsys, command, "--tableau-json", "")
        assert (code, out, err) == (2, "", f"error: {command} needs --tableau-json\n")

    def test_bad_json_exit_1(self, capsys):
        code, _, _ = run(capsys, "red", "--tableau-json", "{not json")
        assert code == 1

    @pytest.mark.parametrize(
        "blob",
        [
            # Meets the strip conditions, encodes no path.
            '{"k": 1, "n": 3, "sign": -1, "rows": [[1, 3, 4], [2]]}',
            '{"k": 1, "n": 2, "sign": 1, "rows": []}',
            "[1, 2]",
            '{"k": 1, "n": 2, "sign": 1}',
            '{"k": 1, "n": 2, "sign": 1, "rows": [["a", "b"], [2, 4]]}',
            # First-row labels outside 1 .. m+n, which would index the word.
            '{"k": 1, "n": 2, "sign": 1, "rows": [[-10, 3], [2, 4]]}',
            '{"k": 1, "n": 2, "sign": 1, "rows": [[1, 9], [2, 4]]}',
            # A k or n far past the rows: the shape check reads the row lengths only.
            *(json.dumps({"k": k, "n": n, "sign": sign, "rows": [[1]]})
              for k, n in [(10**9, 1), (1, 10**9)] for sign in (1, -1)),
        ],
    )
    def test_malformed_tableau_exit_2(self, capsys, blob):
        code, out, err = run(capsys, "tableau", "--tableau-json", blob)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCatalanCommand:
    def test_pretty_and_json(self, capsys):
        code, out, err = run(capsys, "catalan", "--k", "1", "--n", "2")
        assert code == 0
        assert json.loads(out) == [[0, 1, "1"], [1, 0, "1"]]
        assert err.strip() == "q + t"

    @pytest.mark.parametrize("via", ["dinv-area", "area-bounce", "step"])
    def test_non_fuss_k_exit_2(self, capsys, via):
        code, out, err = run(capsys, "catalan", "--k", "0", "--n", "3", "--via", via)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_routes(self, capsys):
        outputs = set()
        for via in ("dinv-area", "area-bounce", "step"):
            _, out, _ = run(capsys, "catalan", "--k", "2", "--n", "3", "--via", via)
            outputs.add(out.strip())
        assert len(outputs) == 1

    def test_route_is_looked_up_on_the_module(self, capsys, monkeypatch):
        # A route rebound on qtcatalan after import, as a tracer does, is the one
        # that runs.
        calls = []
        for name in ("catalan_qt", "catalan_qt_via_bounce", "catalan_step"):
            route = getattr(sweepkit.qtcatalan, name)
            monkeypatch.setattr(sweepkit.qtcatalan, name,
                                lambda *a, route=route, name=name: calls.append(name) or route(*a))
        for via in ("dinv-area", "area-bounce", "step"):
            assert run(capsys, "catalan", "--k", "1", "--n", "3", "--via", via)[0] == 0
        assert calls == ["catalan_qt", "catalan_qt_via_bounce", "catalan_step"]


class TestCount:
    def test_count(self, capsys):
        _, out, _ = run(capsys, "count", "--m", "7", "--n", "5")
        assert out.strip() == "66"

    def test_not_coprime(self, capsys):
        code, _, _ = run(capsys, "count", "--m", "6", "--n", "4")
        assert code == 2

    def test_count_past_the_int_string_digit_limit(self, capsys):
        # More digits than str(int) prints by default; int(Decimal) has no such limit.
        code, out, err = run(capsys, "count", "--m", "7501", "--n", "7500")
        assert (code, err) == (0, "")
        assert len(out.strip()) > sys.get_int_max_str_digits()
        assert int(Decimal(out)) == path_count(make_frame(7501, 7500))


SVG_11_ELEMENTS = {
    "svg", "g", "line", "polyline", "text", "title", "desc", "rect", "path", "circle",
}


class TestRender:
    def test_golden_render(self, capsys, tmp_path):
        out_file = tmp_path / "path.svg"
        code, out, _ = run(capsys, "render", "--m", "7", "--n", "5",
                           "--word", FIG_WORD, "--out", str(out_file))
        assert code == 0
        root = ET.fromstring(out_file.read_text())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.attrib["version"] == "1.1"
        local = {el.tag.split("}")[1] for el in root.iter()}
        assert local <= SVG_11_ELEMENTS
        texts = [el for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert len(texts) == 12  # one rank label per step
        assert {t.text for t in texts} == {str(r) for r in FIG_RANK_SEQUENCE}

    def test_strip_grid(self, capsys, tmp_path):
        out_file = tmp_path / "strip.svg"
        code, _, _ = run(capsys, "render", "--m", "3", "--n", "1",
                         "--word", "NEEE", "--out", str(out_file), "--no-labels")
        assert code == 0
        root = ET.fromstring(out_file.read_text())
        assert not list(root.iter("{http://www.w3.org/2000/svg}text"))

    def test_no_word_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "path.svg"
        code, out, err = run(capsys, "render", "--m", "7", "--n", "5", "--out", str(out_file))
        assert (code, out, err) == (2, "", "error: a path needs --m, --n and --word\n")
        assert not out_file.exists()

    def test_unwritable_exit_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "render", "--m", "3", "--n", "1", "--word", "NEEE",
                         "--out", str(tmp_path / "missing" / "x.svg"))
        assert code == 1


class TestBench:
    def test_row_shape_and_growth_line(self, capsys):
        args = ("bench", "--k", "2", "--sizes", "40,80", "--reps", "2", "--seed", "7")
        _, out1, err = run(capsys, *args)
        rows = [json.loads(line) for line in out1.splitlines()]
        assert [(r["layer"], r["k"], r["sign"], r["n"], r["steps"], r["reps"]) for r in rows] == [
            ("invert_fuss", 2, 1, 40, 121, 2), ("invert_fuss", 2, 1, 80, 241, 2)]
        assert err.startswith("# invert_fuss n=80: time x") and err.endswith(" for n x2.00\n")

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SWEEPKIT_SEED", "123")
        seen = []
        monkeypatch.setitem(sweepkit.bench.LAYERS, "invert_fuss", lambda p: partial(seen.append, p))
        code, out, _ = run(capsys, "bench", "--k", "1", "--sizes", "30", "--reps", "1",
                           "--seed", "999")
        assert code == 0
        assert json.loads(out)["steps"] == 61
        assert seen == [random_path(make_frame(31, 30), random.Random("123:1:30"))]

    def test_zero_reps_exit_2(self, capsys):
        code, out, err = run(capsys, "bench", "--k", "2", "--sizes", "10", "--reps", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--k", "2", "--sizes", "10", "--sign", "-1", "--layers", "red"),
        ("--k", "2", "--sizes", "10", "--layers", "invert_fuss,nosuch"),
        # (1, 1) classifies as k = 2, sign -1, and (3, 2) as k = 1, sign +1.
        ("--k", "0", "--sizes", "1", "--reps", "1"),
        ("--k", "2", "--sizes", "2", "--sign", "-1", "--reps", "1"),
        ("--k", "1", "--sizes", ",", "--reps", "1"),  # no size at all
    ])
    def test_bad_request_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "bench", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_runs_green(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-steps", "9")
        assert code == 0
        assert out.count("ok") == 4
        # Both Fuss suites cover every path of every Fuss frame, both signs.
        fuss_paths = sum(path_count(f) for f in fuss_frames(9))
        assert f"linear inversion vs enumeration: {fuss_paths} paths ok" in out
        assert f"tableau invariants and walk vs column walk: {fuss_paths} paths ok" in out
        # The Catalan routes run on every sign +1 Fuss frame.
        catalan_frames = len(fuss_frames(9, sign=+1))
        assert f"q,t-Catalan routes and path counts: {catalan_frames} frames ok" in out

    def test_planted_fault_names_its_counterexample(self, capsys, monkeypatch):
        # An "inversion" that returns its input first fails on the first
        # Fuss path that the sweep map moves.
        monkeypatch.setattr(sweepkit.suites, "invert_fuss", lambda path: path)
        frames = fuss_frames(6)
        frame, D = next((f, D) for f in frames for D in frame_paths(f.m, f.n) if sweep(D) != D)
        _, counterexample = sweepkit.suites.fuss_inversion(frames)
        assert (counterexample.frame, counterexample.word) == (frame, D.steps)
        assert counterexample.got == {"invert_fuss": D.steps, "sweep(invert_fuss)": sweep(D).steps}
        code, out, _ = run(capsys, "verify", "--max-steps", "6")
        assert code == 2
        lines, failed = out.splitlines(), "linear inversion vs enumeration: FAILED"
        assert [line for line in lines if "FAILED" in line] == [failed]
        assert lines[lines.index(failed) + 1] == f"  counterexample: {counterexample}"

    def test_planted_unchecked_fault_names_its_path(self, capsys, monkeypatch):
        # A rank complement with its third and fourth steps swapped, built
        # unchecked like the real one, dips below the diagonal only on some
        # paths; the suite's validators must catch the first of them.
        def planted(path):
            s = rank_complement(path).steps
            return _unchecked(DyckPath, frame=path.frame, steps=s[:2] + s[3:4] + s[2:3] + s[4:])

        monkeypatch.setattr(sweepkit.suites, "rank_complement", planted)
        frames = coprime_frames(6)
        frame, D = next((f, D) for f in frames for D in frame_paths(f.m, f.n)
                        if prefix_scan(f.m, f.n, planted(D).steps) is not None)
        assert frame.size == 4  # it leaves the three paths with m+n <= 3 valid
        _, counterexample = sweepkit.suites.sweep_transport(frames)
        assert (counterexample.frame, counterexample.word) == (frame, D.steps)
        assert isinstance(counterexample.got, BelowDiagonal)
        code, out, _ = run(capsys, "verify", "--max-steps", "6")
        assert code == 2
        lines, failed = out.splitlines(), "sweep bijection and dinv->area transport: FAILED"
        assert [line for line in lines if "FAILED" in line] == [failed]
        assert lines[lines.index(failed) + 1] == f"  counterexample: {counterexample}"

    def test_planted_fiber_fault_names_its_path(self, capsys, monkeypatch):
        # A fiber in the wrong order first fails on the first sign +1 path
        # whose tableau has a fiber of two or more members.
        monkeypatch.setattr(sweepkit.suites, "fiber_by_cutting",
                            lambda T: fiber_by_cutting(T)[::-1])
        frames = fuss_frames(6)
        frame, D = next((f, D) for f in frames if f.fuss.sign > 0
                        for D in frame_paths(f.m, f.n) if fiber_count(path_tableau(D)) > 1)
        _, counterexample = sweepkit.suites.tableau_walk(frames)
        assert (counterexample.frame, counterexample.word) == (frame, D.steps)
        code, out, _ = run(capsys, "verify", "--max-steps", "6")
        assert code == 2
        lines, failed = out.splitlines(), "tableau invariants and walk vs column walk: FAILED"
        assert [line for line in lines if "FAILED" in line] == [failed]
        assert lines[lines.index(failed) + 1] == f"  counterexample: {counterexample}"

    def test_planted_reduction_fault_names_its_path(self, capsys, monkeypatch):
        # A reduced path left unswept is a valid path of the reduced frame, but
        # its tableau is not red of the path's: the value key names the first.
        monkeypatch.setattr(sweepkit.suites, "reduced_path_of",
                            lambda D: invert_fuss(reduced_path_of(D)))
        frames = fuss_frames(7)
        frame, D = next((f, D) for f in frames if f.fuss.sign > 0 and f.n >= 2
                        for D in frame_paths(f.m, f.n)
                        if path_tableau(invert_fuss(reduced_path_of(D))) != red(path_tableau(D)))
        _, counterexample = sweepkit.suites.tableau_walk(frames)
        assert (counterexample.frame, counterexample.word) == (frame, D.steps)
        assert counterexample.got["parse_path(reduced_path_of)"] is True
        code, out, _ = run(capsys, "verify", "--max-steps", "7")
        assert code == 2
        lines, failed = out.splitlines(), "tableau invariants and walk vs column walk: FAILED"
        assert [line for line in lines if "FAILED" in line] == [failed]
        assert lines[lines.index(failed) + 1] == f"  counterexample: {counterexample}"

    def test_planted_route_disagreement_prints_each_route(self, capsys, monkeypatch):
        # A step route with one q too many first disagrees on (3, 2), the first sign +1
        # Fuss frame with n >= 2; the counterexample gives every route's polynomial.
        step = sweepkit.qtcatalan.catalan_step
        monkeypatch.setitem(sweepkit.suites.CATALAN_ROUTES, "step",
                            lambda k, n: step(k, n) + QTPolynomial({(1, 0): 1}))
        _, counterexample = sweepkit.suites.catalan_routes(coprime_frames(6))
        assert (counterexample.frame, counterexample.word) == (make_frame(3, 2), "")
        assert counterexample.expected == 2
        assert counterexample.got == {"dinv-area": "q + t", "area-bounce": "q + t",
                                      "step": "2 q + t"}
        code, out, _ = run(capsys, "verify", "--max-steps", "6")
        assert code == 2
        lines, failed = out.splitlines(), "q,t-Catalan routes and path counts: FAILED"
        assert [line for line in lines if "FAILED" in line] == [failed]
        assert lines[lines.index(failed) + 1] == (
            "  counterexample: Catalan routes on (3, 2): expected 2, got "
            "{'dinv-area': 'q + t', 'area-bounce': 'q + t', 'step': '2 q + t'}")

    def test_planted_path_fails_every_suite_that_reads_it(self, capsys, monkeypatch):
        # A path below the diagonal makes the references raise too (the brute
        # search finds no preimage, the oracle fill stalls): each suite names
        # it, and the suites after the first failure still run.
        def planted(frame):
            yield _unchecked(DyckPath, frame=frame, steps="E" * frame.m + "N" * frame.n)
            yield from enumerate_paths(frame)

        monkeypatch.setattr(sweepkit.suites, "enumerate_paths", planted)
        code, out, err = run(capsys, "verify", "--max-steps", "6")
        assert (code, err) == (2, "")
        lines = out.splitlines()
        labels = ["sweep bijection and dinv->area transport", "linear inversion vs enumeration",
                  "tableau invariants and walk vs column walk",
                  "q,t-Catalan routes and path counts"]
        assert [[line for line in lines if line.startswith(label + ":")] for label in labels] == [
            [f"{label}: FAILED"] for label in labels[:3]] + [[f"{labels[3]}: 5 frames ok"]]
        counterexamples = [line for line in lines if line.startswith("  counterexample: ")]
        assert len(counterexamples) == 3
        assert all(" on (1, 1) EN: expected " in line for line in counterexamples)


FUZZ_COMMANDS = [
    ["stats"],
    ["sweep"],
    ["invert", "--method=fuss"],
    ["invert", "--method=bipartite"],
    ["invert", "--method=brute"],
    ["tableau"],
]
FUZZ_TEXT = st.one_of(st.text(max_size=40), st.text(alphabet="NESWnesw", max_size=40))
FUZZ_TABLEAU = st.one_of(
    st.text(max_size=60),
    st.builds(
        json.dumps,
        st.fixed_dictionaries({
            "k": st.integers(-1, 3),
            "n": st.integers(-1, 4),
            "sign": st.integers(-2, 2),
            "rows": st.lists(st.lists(st.integers(-1, 16), max_size=5), max_size=5),
        }),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    n=st.integers(1, 30),
    kind=st.sampled_from(["ne", "sw", "en"]),
    data=st.data(),
)
def test_fuzzed_input_exits_cleanly(command, n, kind, data):
    fuss_m = [k * n + s for k in range(1, 30) for s in (1, -1) if 1 <= k * n + s <= 30]
    m = data.draw(st.integers(1, 30) | st.sampled_from(fuss_m), label="m")
    if math.gcd(m, n) == 1 and data.draw(st.booleans(), label="valid path"):
        # The SW/EN words of a valid path, so the success paths are reached too.
        path = random_path(make_frame(m, n), data.draw(st.randoms(use_true_random=False)))
        sw = sw_word(path).letters
        word = sw if kind == "sw" else sw_to_steps(sw)
        en = en_word(path).letters
    else:
        word = data.draw(FUZZ_TEXT, label="word")
        en = data.draw(st.none() | FUZZ_TEXT, label="en word")
    argv = command + [f"--m={m}", f"--n={n}", f"--word={word}", f"--word-kind={kind}"]
    if en is not None and command[0] == "invert":
        argv.append(f"--en-word={en}")
    if command[0] == "tableau":
        tableau = data.draw(st.none() | FUZZ_TABLEAU, label="tableau json")
        if tableau is not None:
            argv.append(f"--tableau-json={tableau}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
