"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import contextlib
import io

import pytest

import run

wl = run._import_program()

import freshcache.cli  # noqa: E402  (importable once run has set up the paths)
import freshcache.search  # noqa: E402
import tracing  # noqa: E402


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = freshcache.cli.main(argv)
    return code, out.getvalue()


def test_generator_is_deterministic(tmp_path):
    a = wl.synthetic(7, "n12k3", 12, 3, 4, 1)
    assert a == wl.synthetic(7, "n12k3", 12, 3, 4, 1)
    assert a != wl.synthetic(8, "n12k3", 12, 3, 4, 1)
    assert [r.capacity for r in a.relays] == [5, 4, 4]
    for name in wl.WORKLOADS:
        wl.prepare(name, 3, tmp_path / name / "a")
        wl.prepare(name, 3, tmp_path / name / "b")
        files = sorted(p.name for p in (tmp_path / name / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / name / "b").iterdir())
        for f in files:
            assert (tmp_path / name / "a" / f).read_bytes() == (tmp_path / name / "b" / f).read_bytes()


def test_capacities_fix_the_work():
    for seed in (1, 2, 3):
        sc = wl.synthetic(seed, "n10k4", 10, 4, 4, 0)
        assert wl.distinct_assignments(sc) == 25200


@pytest.fixture(scope="module")
def table1_path(tmp_path_factory):
    return wl.prepare("simulate", 5, tmp_path_factory.mktemp("docs"))[0]


def test_golden_gate(table1_path):
    golden = wl.commands("solve-exhaustive", 5, [table1_path])[0]
    code, out = cli(golden.argv)
    assert golden.gate(code, out) is None
    assert golden.gate(code, out.replace("objective_sum=0.531856", "objective_sum=0.531857")) is not None
    assert golden.gate(5, out) is not None


def test_solve_json_gate():
    sc = wl.synthetic(1, "small", 6, 2, 2, 1)
    distinct = wl.distinct_assignments(sc)
    sampled = freshcache.search.solve_sampled(sc, 50, 1).objective.sum_form
    result = freshcache.search.solve_exhaustive(sc)
    out = freshcache.cli._result_json(result)
    gate = wl.gate_solve_json(distinct, sampled)
    assert gate(0, out) is None
    assert wl.gate_solve_json(distinct, result.objective.sum_form * (1 + 1e-9))(0, out) is not None
    assert wl.gate_solve_json(distinct + 1, sampled)(0, out) is not None
    assert gate(0, "not json") is not None


def test_sweep_gate(table1_path):
    argv = ["sweep", "--scenario", table1_path.path, "--mode", "sampled", "--budget", "200", "--seed", "1",
            "--scale", "server", "--factors", wl.SWEEP_FACTORS]
    code, out = cli(argv)
    gate = wl.gate_sweep(wl.SWEEP_FACTORS, 4, wl.TABLE1_OPTIMUM + 1e-12)
    assert gate(code, out) is None
    row = next(line for line in out.splitlines() if line.startswith("1,"))
    assert gate(code, out.replace(row, "1,0.531857")) is not None
    assert gate(code, out.replace("0.5,", "0.25,")) is not None


def test_simulate_gate(table1_path):
    argv = ["simulate", "--scenario", table1_path.path, "--scheme", table1_path.scheme_path,
            "--rates", table1_path.rates_path, "--horizon", "2000", "--seed", "1"]
    code, out = cli(argv)
    gate = wl.gate_simulate(10)
    assert gate(code, out) is None
    lines = out.splitlines()
    fields = lines[1].split(",")
    fields[5] = f"{float(fields[4]) + 10 * float(fields[6]) + 0.01:.6f}"
    corrupted = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    assert gate(code, corrupted) is not None
    assert gate(code, "\n".join(lines[:-5]) + "\n") is not None


def test_verify_gate(tmp_path):
    inst = wl._write_scenario(tmp_path, "small", wl.synthetic(2, "small", 6, 2, 2, 1))
    code, out = cli(["verify", "--scenario", inst.path, "--threads", "1"])
    assert wl.gate_verify(code, out) is None
    assert wl.gate_verify(code, out.replace("verify=PASS", "verify=FAIL")) is not None
    assert wl.gate_verify(1, out) is not None


def test_self_times_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S("cli.main", -1, 0.0, 10.0, 1, 10.0),
        S("search.solve_exhaustive", 0, 1.0, 8.0, 1, 7.0),
        S("rate_alloc.waterfill", 1, count=1000, total=2.5),       # folded hot leaf
        S("search.make_solve_result", 1, 7.0, 7.9, 1, 0.9),
        S("rate_alloc.allocate", 3, count=3, total=0.3),
        S("rate_alloc.waterfill", 4, count=3, total=0.1),
        S("scenario_io.load_scenario", 0, 0.2, 0.9, 1, 0.7),
    ]
    own = tracing.self_times(spans)
    assert own["cli.main"] == pytest.approx(10.0 - 7.0 - 0.7)
    assert own["search.solve_exhaustive"] == pytest.approx(7.0 - 2.5 - 0.9)
    assert own["search.make_solve_result"] == pytest.approx(0.9 - 0.3)
    assert own["rate_alloc.allocate"] == pytest.approx(0.3 - 0.1)
    assert own["rate_alloc.waterfill"] == pytest.approx(2.6)
    spans[1].work = 500
    m = tracing.layer_metrics(spans)
    assert m["rate_alloc.waterfill_calls"] == 1003
    assert m["rate_alloc.waterfill_per_eval"] == pytest.approx(1000 / 500)
    assert m["search.self_s"] == pytest.approx(3.6)


def test_tracer_records_nesting_and_restores(table1_path):
    tracer = tracing.Tracer()
    original = freshcache.search.waterfill
    restore, absent = tracing.install(tracer, tracing.TARGETS + (("freshcache.search", "no_such_name", "x", False, None),))
    try:
        code, _out = cli(["solve", "--scenario", table1_path.path, "--threads", "1"])
    finally:
        restore()
    assert code == 0
    assert absent == ["freshcache.search.no_such_name"]
    assert freshcache.search.waterfill is original
    m = tracing.layer_metrics(tracer.spans)
    assert m["search.assignments"] == 40110
    assert m["rate_alloc.waterfill_per_eval"] == 3.0
    assert m["scenario_io.load_calls"] == 1
    assert 0 < m["search.self_s"] < m["search.solve_s"]
