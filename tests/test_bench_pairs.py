"""``tools/bench_pairs.py``: its parser, pairing and refusals, on canned
``bench/run.py`` output. No benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIGEST = "0a28bbfbfbd7019791757247b0b28ac623d4b6d06f2f183e7598c179a1582cd6"


def canned_output(wall_s, digest=DIGEST, correct=True, git_sha="c9d418e", make_data_s=1.0):
    """The ``--trace 0`` output of ``bench/run.py``, cut to two metrics."""
    env = {"OPENBLAS_NUM_THREADS": "1", "git_sha": git_sha, "nproc": 2, "numpy": "2.4.6", "source_sha256": "ab"}
    result = {
        "correct": correct,
        "attempted": 2,
        "failed": 0 if correct else 1,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}, "acc_all": {"value": 0.66, "unit": "ratio"}},
    }
    return "\n".join(
        [
            "workload cli-roundtrip seed 9 trace 0 spec CliSpec(units=1)",
            "env " + json.dumps(env, sort_keys=True),
            "op unit0/make-data 0.2465 s paced ok",
            "op unit0/train-teacher 0.1067 s paced ok",
            f"step_s make-data={make_data_s!r} train-teacher=0.5059340581405332",
            f"unpaced wall_s = {wall_s - 1.0!r} s (as the clock read it)",
            f"metric wall_s = {wall_s!r} s",
            "metric acc_all = 0.66 ratio",
            "acc_few_gain = 0.276 ratio (bkd few-shot accuracy minus the teacher's; reported, not gated)",
            "error_rate = 0/2 = 0.0",
            f"artifacts_sha256 {digest}",
            json.dumps(result),
        ]
    )


def test_parse_run_reads_every_field():
    run = bench_pairs.parse_run(canned_output(4.125, make_data_s=1.0755))
    assert run["correct"] is True
    assert run["artifacts_sha256"] == DIGEST
    assert run["env"]["git_sha"] == "c9d418e"
    assert run["metrics"] == {
        "wall_s": 4.125,
        "acc_all": 0.66,
        "unpaced_wall_s": 3.125,
        "step_s.make-data": 1.0755,
        "step_s.train-teacher": 0.5059340581405332,
    }


def test_parse_run_refuses_output_without_its_result_or_digest():
    with pytest.raises(ValueError, match="not the result JSON"):
        bench_pairs.parse_run(canned_output(4.0).rsplit("\n", 1)[0])
    no_digest = "\n".join(line for line in canned_output(4.0).splitlines() if not line.startswith("artifacts"))
    with pytest.raises(ValueError, match=r"lacks \['artifacts_sha256'\]"):
        bench_pairs.parse_run(no_digest)
    with pytest.raises(ValueError, match="no output"):
        bench_pairs.parse_run("")


def test_summarize_gives_each_sides_median_and_iqr_and_the_pairs_won():
    base = [bench_pairs.parse_run(canned_output(w)) for w in (4.0, 4.2, 4.1, 4.3, 3.9)]
    change_walls = (3.7, 3.6, 4.2, 3.8, 3.5)
    change = [bench_pairs.parse_run(canned_output(w, correct=w < 3.8, git_sha="f00")) for w in change_walls]
    entry = bench_pairs.summarize({"base": base, "change": change}, {"wall_s": "lower", "acc_all": "higher"})
    assert entry["artifacts_sha256"] == DIGEST and entry["pairs"] == 5
    wall = entry["sides"]["base"]["metrics"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"]) == pytest.approx((4.1, 4.0, 4.2))
    assert wall["iqr"] == pytest.approx(0.2) and wall["runs"] == [4.0, 4.2, 4.1, 4.3, 3.9]
    assert entry["sides"]["change"]["metrics"]["wall_s"]["median"] == pytest.approx(3.7)
    assert entry["sides"]["change"]["git_sha"] == "f00"
    assert entry["sides"]["base"]["correct"] == [True] * 5
    assert entry["sides"]["change"]["correct"] == [True, True, False, False, True]
    # the change read lower in 4 of 5 pairs; equal accuracies are ties, which count for neither
    assert entry["change_better_pairs"]["wall_s"] == 4
    assert entry["change_better_pairs"]["unpaced_wall_s"] == 4
    assert entry["change_better_pairs"]["acc_all"] == 0


def test_summarize_refuses_to_pair_runs_whose_digests_differ():
    base = [bench_pairs.parse_run(canned_output(4.0))]
    change = [bench_pairs.parse_run(canned_output(3.7, digest="1a" * 32))]
    with pytest.raises(ValueError, match="refusing to pair runs whose artifacts_sha256 differ"):
        bench_pairs.summarize({"base": base, "change": change}, {})
    moved = [bench_pairs.parse_run(canned_output(4.0)), bench_pairs.parse_run(canned_output(4.0, digest="1a" * 32))]
    with pytest.raises(ValueError, match="artifacts_sha256 differ"):
        bench_pairs.summarize({"base": moved, "change": moved}, {})


def test_summarize_pairs_a_declared_rebaseline_by_side():
    base = [bench_pairs.parse_run(canned_output(w)) for w in (4.0, 4.2)]
    change = [bench_pairs.parse_run(canned_output(w, digest="1a" * 32)) for w in (3.7, 3.9)]
    entry = bench_pairs.summarize({"base": base, "change": change}, {"wall_s": "lower"}, bits_moved=True)
    assert entry["artifacts_sha256"] == {"base": DIGEST, "change": "1a" * 32}
    assert entry["bits_moved"] is True and entry["pairs"] == 2
    assert entry["change_better_pairs"]["wall_s"] == 2
    # without the flag the same runs are refused, as is any entry's moving within a side
    with pytest.raises(ValueError, match="refusing to pair runs whose artifacts_sha256 differ"):
        bench_pairs.summarize({"base": base, "change": change}, {})
    moved = [change[0], bench_pairs.parse_run(canned_output(3.9, digest="2b" * 32))]
    with pytest.raises(ValueError, match="refusing to pair runs whose artifacts_sha256 differ"):
        bench_pairs.summarize({"base": base, "change": moved}, {}, bits_moved=True)
    # a re-baseline whose bits did not move is no re-baseline
    with pytest.raises(ValueError, match=r"^--bits-moved, but both sides wrote artifacts_sha256"):
        bench_pairs.summarize({"base": base, "change": base}, {}, bits_moved=True)


def test_bits_moved_flag_decides_whether_main_pairs_differing_digests(monkeypatch, tmp_path):
    dirs = {side: tmp_path / side for side in ("base", "change")}
    for d in dirs.values():
        d.mkdir()
    digests = {str(dirs["base"]): DIGEST, str(dirs["change"]): "1a" * 32}
    monkeypatch.setattr(bench_pairs, "run_once", lambda d, *_: bench_pairs.parse_run(canned_output(4.0, digests[d])))
    monkeypatch.setattr(bench_pairs, "openblas_core", lambda: "SkylakeX")
    out = tmp_path / "pairs.json"
    argv = ["--base", str(dirs["base"]), "--change", str(dirs["change"]), "--workload", "cli-roundtrip"]
    argv += ["--seed", "9", "--pairs", "2", "--out", str(out)]
    with pytest.raises(ValueError, match="refusing to pair runs whose artifacts_sha256 differ"):
        bench_pairs.main(argv)
    assert not out.exists()
    assert bench_pairs.main([*argv, "--bits-moved"]) == 0
    entry = json.loads(out.read_text())["results"]["cli-roundtrip seed 9"]
    assert entry["artifacts_sha256"] == {"base": DIGEST, "change": "1a" * 32}
    assert entry["bits_moved"] is True and entry["pairs"] == 2


@pytest.fixture
def fake_runs(monkeypatch, tmp_path):
    """(main, runs): ``main`` runs the tool on one workload, writing
    ``pairs.json``, with each ``bench/run.py`` run replaced by canned output,
    recorded in ``runs``, and the OpenBLAS core by ``core``."""
    runs = []

    def run_once(directory, workload, seed, seconds):
        runs.append((workload, seed, seconds))
        return bench_pairs.parse_run(canned_output(4.0))

    def main(*args, seconds="25", core="SkylakeX"):
        monkeypatch.setattr(bench_pairs, "openblas_core", lambda: core)
        base = ["--base", str(tmp_path), "--change", str(tmp_path), "--workload", "cli-roundtrip"]
        return bench_pairs.main([*base, "--seconds", seconds, "--out", str(tmp_path / "pairs.json"), *args])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return main, runs


def test_pairs_below_one_refused_before_any_run(fake_runs, tmp_path, capsys):
    main, runs = fake_runs
    with pytest.raises(SystemExit) as info:
        main("--seed", "9", "--pairs", "0")
    assert info.value.code == 2
    assert "--pairs must be at least 1, got 0" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "pairs.json").exists()


def test_append_refused_unless_seconds_and_core_match_the_file(fake_runs, tmp_path, capsys):
    main, runs = fake_runs
    out = tmp_path / "pairs.json"
    assert main("--seed", "9", "--pairs", "1") == 0
    written = out.read_bytes()
    for seconds, core in (("10", "SkylakeX"), ("25", "Haswell")):
        with pytest.raises(SystemExit) as info:
            main("--seed", "7919", "--pairs", "1", seconds=seconds, core=core)
        assert info.value.code == 2
        assert "use another --out" in capsys.readouterr().err
        assert out.read_bytes() == written
    assert len(runs) == 2  # the first call's pair only
    assert main("--seed", "7919", "--pairs", "1") == 0
    report = json.loads(out.read_text())
    assert (report["seconds"], report["openblas_core"]) == (25.0, "SkylakeX")
    assert sorted(report["results"]) == ["cli-roundtrip seed 7919", "cli-roundtrip seed 9"]
