import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from homcount import canonical, cli, counting, families, graphs, interpolation, inversion, kernels
from homcount.canonical import enumerate_graphs
from homcount.errors import InternalCheckError
from homcount.graphs import Graph, biclique, cycle_graph, path_graph, to_text

from .conftest import random_graph, record_graphs

DATA = Path(__file__).parent / "data"
G = DATA / "graphs"
SRC = Path(__file__).parents[1] / "src"
GOLDEN = DATA / "golden"
# SHA-256 of test_images_output_is_pinned_on_random_looped_graphs' stdout,
# taken before the partition walk was packed and its quotients memoized.
IMAGES_PINNED_SHA256 = "20c77acf1916e1758d217f6ab30f052e76745c819ee648f9aea335d42bef2b7d"
# SHA-256 of `verify --n-max 4` stdout in JSON and in plain form (MD5
# b5b02888dfeee33d275983cfa6e58ede and fec9ef3a3af6ab9cc8b407968b908e1c),
# and of test_recover_output_is_pinned's exit codes and stdout, all taken
# before the closed-set walk and N's reading were merged into one pass.
VERIFY_N4_PINNED_SHA256 = {
    "json": "34074e07c0a83206d59e30b85dc9ff89bdbd40118c9e0939e3a2987adfc8aad6",
    "plain": "631b54de0a575296bf16738a0b03d480f1f95014b1bab9d706f903a1a294e29b",
}
RECOVER_PINNED_SHA256 = "574e6f842414c933790cb845b5ed15fba36a7196edac0efa2de4cb8ae82f86bb"
# SHA-256 of test_inverse_column_output_is_pinned's stdout, taken before the
# subgraph walks keyed packed leaves in place of a Graph per leaf.
INVERSE_COLUMN_PINNED_SHA256 = "d0710264d713660778719acc552c4cdb4f37a70c233cf2132c66c45be4eea65c"

GOLDEN_CASES = [
    ("01_count_hom_poly.json",
     ["count", "--kind", "hom", "--g", f"{G}/p3.graph", "--h", f"{G}/k2.graph"]),
    ("02_count_hom_brute.json",
     ["count", "--kind", "hom", "--g", f"{G}/p3.graph", "--h", f"{G}/k2.graph",
      "--force-bruteforce"]),
    ("03_count_vsurj.json",
     ["count", "--kind", "vsurj", "--g", f"{G}/p3.graph", "--h", f"{G}/k2.graph"]),
    ("04_count_vesurj.json",
     ["count", "--kind", "vesurj", "--g", f"{G}/p3.graph", "--h", f"{G}/k22.graph"]),
    ("05_count_aut.json",
     ["count", "--kind", "aut", "--h", f"{G}/k3.graph"]),
    ("06_count_plain.txt",
     ["count", "--kind", "hom", "--g", f"{G}/c5.graph", "--h", f"{G}/k3.graph",
      "--format", "plain"]),
    ("07_classify_k22.json", ["classify", "--h", f"{G}/k22.graph"]),
    ("08_classify_star3.json", ["classify", "--h", f"{G}/star3.graph"]),
    ("09_inverse_column_k2.json", ["inverse-column", "--h", f"{G}/k2.graph"]),
    ("10_images_k2.json", ["images", "--h", f"{G}/k2.graph"]),
    ("11_verify_n2.json", ["verify", "--n-max", "2"]),
    ("12_recover_vsurj_k2.json",
     ["recover", "--h", f"{G}/k2.graph", "--g", f"{G}/p3.graph", "--mode", "vsurj"]),
]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES,
                         ids=[name.split(".")[0] for name, _ in GOLDEN_CASES])
def test_golden_outputs_are_byte_identical(golden_name, argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden_name).read_text()


def test_json_outputs_parse_and_sort_keys(capsys):
    cli.main(["classify", "--h", f"{G}/k22.graph"])
    record = json.loads(capsys.readouterr().out)
    assert list(record) == sorted(record)


def test_stdin_source(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((G / "p3.graph").read_text()))
    assert cli.main(["count", "--kind", "hom", "--g", "-", "--h", f"{G}/k2.graph",
                     "--format", "plain"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_stdin_target(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((G / "k3.graph").read_text()))
    assert cli.main(["count", "--kind", "aut", "--h", "-", "--format", "plain"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_plain_formats(capsys):
    assert cli.main(["classify", "--h", f"{G}/k22.graph", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert out == "in_F true\nin_C false\ncomponents biclique(2,2)\nhard_edge 0 2\n"

    assert cli.main(["inverse-column", "--h", f"{G}/k2.graph", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert out == "-1\tvertices 2\n1\tvertices 2; edge 0 1\n"

    assert cli.main(["images", "--h", f"{G}/k2.graph", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert out == "0180\tvertices 1; loop 0\n0220\tvertices 2; edge 0 1\n"

    assert cli.main(["verify", "--n-max", "1", "--format", "plain"]) == 0
    assert capsys.readouterr().out.endswith("ok\n")

    assert cli.main(["recover", "--h", f"{G}/k2.graph", "--g", f"{G}/p3.graph",
                     "--mode", "vsurj", "--format", "plain"]) == 0
    assert capsys.readouterr().out == "target 0220 recovered 2 truth 2 match true\n"


def test_recover_vesurj_reports_both_targets(capsys):
    assert cli.main(["recover", "--h", f"{G}/k22.graph", "--g", f"{G}/p3.graph",
                     "--mode", "vesurj", "--format", "plain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("recovered 16 truth 16 match true")
    assert lines[1].endswith("recovered 10 truth 10 match true")


def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["count"]) == 2
    assert cli.main(["count", "--kind", "hom", "--h", f"{G}/k2.graph"]) == 2
    assert cli.main(["count", "--kind", "aut", "--h", f"{G}/k2.graph",
                     "--g", f"{G}/p3.graph"]) == 2
    assert cli.main(["count", "--kind", "hom", "--g", "-", "--h", "-"]) == 2
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for _ in range(3):
        assert cli.main(["images", "--h", f"{G}/k2.graph"]) == 0
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    assert len(built) == 1


def test_shared_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    bad_calls = [
        ["count", "--kind", "aut", "--g", f"{G}/p3.graph", "--h", f"{G}/k2.graph"],
        ["count", "--kind", "hom", "--h", f"{G}/k2.graph"],
    ]
    fresh = []
    for argv in bad_calls:
        cli._parser.cache_clear()
        assert cli.main(argv) == 2
        fresh.append(capsys.readouterr().err)
    assert all(fresh)

    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsed.append(parse_args(self, *args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert cli.main(["count", "--kind", "hom", "--g", f"{G}/p3.graph",
                     "--h", f"{G}/k2.graph", "--force-bruteforce",
                     "--budget", "99", "--format", "plain"]) == 0
    assert capsys.readouterr().out == "2\n"
    for argv, err in zip(bad_calls, fresh):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == err
    assert cli.main(["count", "--kind", "hom", "--g", f"{G}/p3.graph",
                     "--h", f"{G}/k2.graph"]) == 0
    assert cli.main(["images", "--h", f"{G}/k2.graph"]) == 0
    capsys.readouterr()
    first, *_, plain_count, images = parsed
    assert (first.force_bruteforce, first.budget, first.format) == (True, 99, "plain")
    assert (plain_count.force_bruteforce, plain_count.budget, plain_count.format) == (
        False, cli.DEFAULT_BUDGET, "json")
    assert vars(images).keys() == {"command", "h", "format", "func"}


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "count" in capsys.readouterr().out


def test_parse_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices 2\nedge 0 9\n")
    assert cli.main(["count", "--kind", "aut", "--h", str(bad)]) == 3
    assert cli.main(["count", "--kind", "aut", "--h", str(tmp_path / "missing.graph")]) == 3
    err = capsys.readouterr().err
    assert "graph input error" in err


def test_non_utf8_graph_exits_3_from_a_file_and_from_stdin(monkeypatch, tmp_path, capsys):
    data = b"vertices 2\nedge 0 1 # \xff\n"
    bad = tmp_path / "latin1.graph"
    bad.write_bytes(data)
    assert cli.main(["classify", "--h", str(bad)]) == 3
    # A POSIX locale gives stdin surrogateescape, which would accept the
    # byte: the bytes under the stream are decoded as a file's are.
    for errors in ("strict", "surrogateescape"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                          errors=errors))
        assert cli.main(["classify", "--h", "-"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("homcount: graph input error: ") for line in err)
    assert all("can't decode byte 0xff" in line for line in err)


def test_huge_vertex_count_exits_3_before_any_allocation(tmp_path, capsys):
    # 25 bytes asking for 10^14 vertices; classify would size a list by it.
    huge = tmp_path / "huge.graph"
    huge.write_text("vertices 100000000000000\n")
    assert huge.stat().st_size == 25
    start = time.perf_counter()
    assert cli.main(["classify", "--h", str(huge)]) == 3
    assert time.perf_counter() - start < 0.5
    assert "vertex count 100000000000000 is over the limit" in capsys.readouterr().err


def test_precondition_errors_exit_4(capsys, tmp_path):
    assert cli.main(["count", "--kind", "hom", "--g", f"{G}/c5.graph",
                     "--h", f"{G}/k3.graph", "--force-bruteforce",
                     "--budget", "10"]) == 4
    big = tmp_path / "big.graph"
    big.write_text("vertices 9\n")
    assert cli.main(["images", "--h", str(big)]) == 4
    err = capsys.readouterr().err
    assert "precondition violated" in err


def test_budget_charges_kernel_states_not_all_maps(capsys, tmp_path):
    k4 = tmp_path / "k4.graph"
    k4.write_text("vertices 4\n" + "".join(f"edge {i} {j}\n" for i in range(4)
                                           for j in range(i + 1, 4)))
    for n, count in ((16, 43046724), (30, 205891132094652)):
        cycle = tmp_path / f"c{n}.graph"
        cycle.write_text(f"vertices {n}\n" + "".join(f"edge {i} {(i + 1) % n}\n"
                                                     for i in range(n)))
        assert cli.main(["count", "--kind", "hom", "--g", str(cycle), "--h", str(k4),
                         "--format", "plain"]) == 0
        assert capsys.readouterr().out == f"{count}\n"
    # C5 into K3 builds 31 states.
    assert cli.main(["count", "--kind", "hom", "--g", f"{G}/c5.graph", "--h", f"{G}/k3.graph",
                     "--force-bruteforce", "--budget", "31", "--format", "plain"]) == 0
    assert capsys.readouterr().out == "30\n"
    assert cli.main(["count", "--kind", "hom", "--g", f"{G}/c5.graph", "--h", f"{G}/k3.graph",
                     "--force-bruteforce", "--budget", "30"]) == 4
    assert "31 dynamic-program states" in capsys.readouterr().err


def test_internal_errors_exit_5(monkeypatch, capsys):
    def boom(h):
        raise InternalCheckError("wired to fail")

    monkeypatch.setattr(cli, "classification_json", boom)
    assert cli.main(["classify", "--h", f"{G}/k22.graph"]) == 5
    assert "internal check failed" in capsys.readouterr().err


def test_verify_exit_5_on_violation(monkeypatch, capsys):
    def fake_verify(n_max):
        # The empty graph's report, with a made-up violation, and its
        # one-entry tables, which the other sections read.
        report = {"n_max": n_max, "classes": 1, "pairs": 1, "checks": 4,
                  "violations": [{"identity": "made-up"}]}
        key = cli.enumerate_graphs(0)[0][0]
        return report, {key: 0}, [[1]], [[1]], [[1]]

    monkeypatch.setattr(cli, "_expansions", fake_verify)
    assert cli.main(["verify", "--n-max", "0", "--format", "plain"]) == 5
    assert capsys.readouterr().out.endswith("FAIL\n")


def test_verify_counts_each_class_pair_once(monkeypatch):
    tables = []
    real_table = counting.hom_table

    def counted_table(members):
        tables.append(len(members))
        return real_table(members)

    for module in (counting, inversion, interpolation):
        monkeypatch.setattr(module, "hom_table", counted_table)
    counted = Counter()
    real_maps = kernels.count_maps

    def counted_maps(g, h, mode):
        counted[g, h, mode] += 1
        return real_maps(g, h, mode)

    monkeypatch.setattr(kernels, "count_maps", counted_maps)
    report = cli._run_verify(3)
    assert report["ok"] and report["sections"]["diagonal"]["classes"] == 29
    assert tables == [29]
    # The expansions' tables count each diagonal entry once in each
    # surjective mode, and the diagonal section counts none again.
    for _, h in enumerate_graphs(3):
        for mode in (kernels.MODE_VSURJ, kernels.MODE_VESURJ):
            assert counted[h, h, mode] == 1, (h, mode)
    assert max(counted.values()) == 1


def test_verify_n4_end_to_end(capsys):
    assert cli.main(["verify", "--n-max", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["violations"] == 0
    expansions = report["sections"]["expansions"]
    assert (expansions["classes"], expansions["pairs"], expansions["checks"]) == (
        119, 14161, 56644)
    for name in ("diagonal", "families", "interpolation"):
        assert report["sections"][name]["classes"] == 119


def test_verify_n4_output_is_pinned(capsys):
    for fmt, want in VERIFY_N4_PINNED_SHA256.items():
        assert cli.main(["verify", "--n-max", "4", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, fmt


def test_recover_output_is_pinned(tmp_path, capsys):
    # P3 into every test graph, K2,3 and K3,3 (189 vesurj members), both
    # modes: the closed sets, determinants and recovered counts.
    targets = sorted(G.glob("*.graph"))
    for name, h in (("k23", biclique(2, 3)), ("k33", biclique(3, 3))):
        targets.append(tmp_path / f"{name}.graph")
        targets[-1].write_text(to_text(h))
    digest = hashlib.sha256()
    for h in targets:
        for mode in ("vsurj", "vesurj"):
            code = cli.main(["recover", "--h", str(h), "--g", f"{G}/p3.graph",
                             "--mode", mode, "--format", "json"])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == RECOVER_PINNED_SHA256


def test_module_entry_point_exit_codes():
    # What a shell sees from `python -m homcount`: the output and the exit
    # status main_entry passes to sys.exit.
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "homcount", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    name, argv = GOLDEN_CASES[0]
    done = run(*argv)
    assert (done.returncode, done.stdout) == (0, (GOLDEN / name).read_text())
    done = run("count", "--kind", "aut", "--g", f"{G}/p3.graph", "--h", f"{G}/k3.graph")
    assert done.returncode == 2
    assert "--g is not accepted with --kind aut" in done.stderr
    # C5 into K3 builds 31 dynamic-program states.
    done = run("count", "--kind", "hom", "--g", f"{G}/c5.graph", "--h", f"{G}/k3.graph",
               "--force-bruteforce", "--budget", "30")
    assert done.returncode == 4
    assert "31 dynamic-program states" in done.stderr


def test_count_plain_path_note_goes_to_stderr(capsys):
    cli.main(["count", "--kind", "hom", "--g", f"{G}/p3.graph",
              "--h", f"{G}/k2.graph", "--format", "plain"])
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert captured.err == "path: polytime\n"


def _graph_file(tmp_path, name, n, edges):
    path = tmp_path / f"{name}.graph"
    path.write_text(f"vertices {n}\n" + "".join(f"edge {u} {v}\n" for u, v in edges))
    return str(path)


def _star_file(tmp_path, leaves):
    return _graph_file(tmp_path, f"star{leaves}", leaves + 1,
                       [(0, v) for v in range(1, leaves + 1)])


def _path_file(tmp_path, n):
    return _graph_file(tmp_path, f"p{n}", n, [(i, i + 1) for i in range(n - 1)])


def test_count_prints_counts_past_the_int_digit_limit(tmp_path, capsys):
    # 2^15000 has 4,516 digits, past the interpreter's default limit of
    # 4,300 on int-to-str conversion.
    g = _graph_file(tmp_path, "isolated15000", 15000, [])
    h = tmp_path / "rk2.graph"
    h.write_text("vertices 2\nloop 0\nloop 1\nedge 0 1\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert cli.main(["count", "--kind", "hom", "--g", g, "--h", str(h),
                     "--format", "plain"]) == 0
    out = capsys.readouterr().out
    if limit:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{2 ** 15000}\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _refuse_canonicalization(n, loops, adj):
    raise InternalCheckError(f"canonicalized a {n}-vertex graph")


def test_surjective_count_into_larger_target_is_zero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(kernels, "min_encoding", _refuse_canonicalization)
    star12 = _star_file(tmp_path, 12)
    for kind in ("vsurj", "vesurj"):
        assert cli.main(["count", "--kind", kind, "--g", f"{G}/p3.graph",
                         "--h", star12, "--format", "plain"]) == 0
        assert capsys.readouterr().out == "0\n"


def test_closed_form_vesurj_does_not_canonicalize(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(kernels, "min_encoding", _refuse_canonicalization)
    assert cli.main(["count", "--kind", "vesurj", "--g", _star_file(tmp_path, 7),
                     "--h", _star_file(tmp_path, 6), "--format", "plain"]) == 0
    assert capsys.readouterr().out == "15120\n"


def test_inverse_column_pair_guard_runs_before_canonicalization(monkeypatch, tmp_path,
                                                                capsys):
    monkeypatch.setattr(kernels, "min_encoding", _refuse_canonicalization)
    assert cli.main(["inverse-column", "--h", _star_file(tmp_path, 13)]) == 4
    assert "deletion-subgraph enumeration would exceed" in capsys.readouterr().err
    # Every vertex subset is a pair, so many isolated vertices are refused
    # without summing over their subsets.
    for n in (40, 200):
        path = _graph_file(tmp_path, f"isolated{n}", n, [])
        start = time.perf_counter()
        assert cli.main(["inverse-column", "--h", path]) == 4
        assert time.perf_counter() - start < 1.0
        assert "deletion-subgraph enumeration would exceed" in capsys.readouterr().err


def test_verify_size_guard_runs_before_enumeration(monkeypatch, capsys):
    def refuse(n_max):
        raise InternalCheckError(f"enumerated the classes up to {n_max} vertices")

    monkeypatch.setattr(inversion, "enumerate_graphs", refuse)
    monkeypatch.setattr(cli, "enumerate_graphs", refuse)
    start = time.perf_counter()
    assert cli.main(["verify", "--n-max", "6"]) == 4
    assert time.perf_counter() - start < 1.0
    assert "verify is limited to 5 vertices" in capsys.readouterr().err


def test_verify_n_max_must_be_nonnegative(capsys):
    assert cli.main(["verify", "--n-max", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--n-max: must be a nonnegative int" in err
    assert cli.main(["verify", "--n-max", "6"]) == 4
    assert "verify is limited to 5 vertices" in capsys.readouterr().err


def test_aut_counts_highly_symmetric_targets(tmp_path, capsys):
    k12 = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    k66 = [(u, v) for u in range(6) for v in range(6, 12)]
    for name, edges, count in (("isolated12", [], 479001600), ("k12", k12, 479001600),
                               ("k66", k66, 1036800)):
        assert cli.main(["count", "--kind", "aut", "--h", _graph_file(tmp_path, name, 12, edges),
                         "--format", "plain"]) == 0
        assert capsys.readouterr().out == f"{count}\n"


def test_aut_budget_runs_before_the_search(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(kernels, "min_encoding", _refuse_canonicalization)
    cycles = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(4) for i in range(5)]
    assert cli.main(["count", "--kind", "aut", "--h",
                     _graph_file(tmp_path, "4c5", 20, cycles)]) == 4
    assert "over the budget" in capsys.readouterr().err


def test_aut_budget_is_judged_without_building_n_factorial(tmp_path, capsys):
    # 300,000! has about 1.5 million digits; the guard stops multiplying
    # once the product passes the budget.
    huge = _graph_file(tmp_path, "isolated300000", 300000, [])
    start = time.perf_counter()
    assert cli.main(["count", "--kind", "aut", "--h", huge]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "over the budget" in err and "300000" in err
    assert len(err) < 300
    assert cli.main(["count", "--kind", "aut", "--h",
                     _graph_file(tmp_path, "isolated13", 13, [])]) == 4
    assert "over the budget" in capsys.readouterr().err
    four_k3 = [(3 * c + i, 3 * c + j) for c in range(4) for i, j in ((0, 1), (0, 2), (1, 2))]
    for name, edges, count in (("isolated12", [], 479001600), ("4k3", four_k3, 31104)):
        assert cli.main(["count", "--kind", "aut", "--h", _graph_file(tmp_path, name, 12, edges),
                         "--format", "plain"]) == 0
        assert capsys.readouterr().out == f"{count}\n"


def test_budget_must_be_nonnegative(tmp_path, capsys):
    k1 = _graph_file(tmp_path, "k1", 1, [])
    k3 = _graph_file(tmp_path, "k3", 3, [(0, 1), (0, 2), (1, 2)])
    aut = ["count", "--kind", "aut", "--h", k3]
    brute = ["count", "--kind", "hom", "--g", k3, "--h", k3, "--force-bruteforce"]
    for argv in (aut, brute, ["count", "--kind", "aut", "--h", k1]):
        assert cli.main(argv + ["--budget", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--budget: must be a nonnegative int" in err
    # A zero budget is judged as before: K1 has one vertex order, and K3 is
    # refused on both paths.
    assert cli.main(["count", "--kind", "aut", "--h", k1, "--budget", "0",
                     "--format", "plain"]) == 0
    assert capsys.readouterr().out == "1\n"
    for argv in (aut, brute):
        assert cli.main(argv + ["--budget", "0"]) == 4
        assert "over the budget of 0" in capsys.readouterr().err


def test_images_output_matches_a_rendering_of_homomorphic_images(tmp_path, capsys):
    # Every class with at most 4 vertices, then 20 random looped graphs on
    # 6-8 vertices.
    rng = random.Random(113)
    inputs = [rep for _, rep in enumerate_graphs(4)]
    inputs += [random_graph(rng, 8, n_min=6) for _ in range(20)]
    for i, h in enumerate(inputs):
        path = tmp_path / f"h{i}.graph"
        path.write_text(to_text(h))
        images = interpolation.homomorphic_images(h)
        want_json = json.dumps([{"graph": to_text(rep), "key": key.hex()}
                                for key, rep in images], sort_keys=True, indent=2) + "\n"
        want_plain = "".join(f"{key.hex()}\t{'; '.join(to_text(rep).strip().splitlines())}\n"
                             for key, rep in images)
        assert cli.main(["images", "--h", str(path)]) == 0
        assert capsys.readouterr().out == want_json
        assert cli.main(["images", "--h", str(path), "--format", "plain"]) == 0
        assert capsys.readouterr().out == want_plain


def test_images_builds_no_graph_but_its_input(monkeypatch, tmp_path, capsys):
    cube = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    path = _graph_file(tmp_path, "cube", 8, cube)
    interpolation._image_encodings.cache_clear()
    built = record_graphs(monkeypatch, lambda g: g.n)
    for fmt in ("json", "plain"):
        built.clear()
        assert cli.main(["images", "--h", path, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out) if fmt == "json" else out.splitlines()) == 89
        assert built == [8]


def test_images_output_is_pinned_on_random_looped_graphs(tmp_path, capsys):
    # 20 random looped graphs on 7-8 vertices in one process, JSON then
    # plain: later inputs read quotient classes that earlier ones keyed.  An
    # 8-vertex input's identity partition fills every packed block row.
    rng = random.Random(127)
    inputs = [random_graph(rng, 8, n_min=7) for _ in range(20)]
    assert any(h.n == 8 for h in inputs)
    digest = hashlib.sha256()
    for i, h in enumerate(inputs):
        path = tmp_path / f"h{i}.graph"
        path.write_text(to_text(h))
        for fmt in ("json", "plain"):
            assert cli.main(["images", "--h", str(path), "--format", fmt]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == IMAGES_PINNED_SHA256


def test_inverse_column_output_is_pinned(tmp_path, capsys):
    # K3,4 (137 classes), C7, P6 and 10 random looped graphs on 5-7
    # vertices in one process, JSON then plain: later targets read labelled
    # leaves that earlier walks keyed.
    rng = random.Random(139)
    inputs = [biclique(3, 4), cycle_graph(7), path_graph(6)]
    inputs += [random_graph(rng, 7, n_min=5) for _ in range(10)]
    digest = hashlib.sha256()
    for i, h in enumerate(inputs):
        path = tmp_path / f"h{i}.graph"
        path.write_text(to_text(h))
        for fmt in ("json", "plain"):
            assert cli.main(["inverse-column", "--h", str(path), "--format", fmt]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == INVERSE_COLUMN_PINNED_SHA256


def _refuse_hom_polytime(g, h):
    raise InternalCheckError("a closed-form sum went through hom_polytime")


def _refuse_closed_form(comps, shapes):
    raise InternalCheckError("a closed-form term was evaluated")


def _stars_file(tmp_path, name, sizes):
    edges, n = [], 0
    for leaves in sizes:
        edges += [(n, n + v) for v in range(1, leaves + 1)]
        n += leaves + 1
    return _graph_file(tmp_path, name, n, edges)


def test_closed_form_term_limit_runs_before_any_term(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(families, "_hom_closed_form", _refuse_closed_form)
    p60 = _path_file(tmp_path, 60)
    for kind, sizes in (("vsurj", range(1, 9)), ("vesurj", range(1, 10))):
        h = _stars_file(tmp_path, f"stars{len(sizes)}", sizes)
        start = time.perf_counter()
        assert cli.main(["count", "--kind", kind, "--g", p60, "--h", h]) == 4
        assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("the closed-form sum would fold more than 16384 shape multisets") == 2


def test_closed_form_serves_targets_with_many_subsets(tmp_path, capsys):
    c20 = _graph_file(tmp_path, "c20", 20, [(i, (i + 1) % 20) for i in range(20)])
    k88 = _graph_file(tmp_path, "k88", 16, [(i, 8 + j) for i in range(8) for j in range(8)])
    assert cli.main(["count", "--kind", "vsurj", "--g", c20, "--h", k88,
                     "--format", "plain"]) == 0
    assert capsys.readouterr() == ("1828915200000000\n", "path: polytime\n")
    assert cli.main(["count", "--kind", "vesurj", "--g", _path_file(tmp_path, 60),
                     "--h", _star_file(tmp_path, 40), "--format", "plain"]) == 0
    assert capsys.readouterr() == ("0\n", "path: polytime\n")


def test_closed_form_vesurj_serves_star13(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(families, "hom_polytime", _refuse_hom_polytime)
    p20, star13 = _path_file(tmp_path, 20), _star_file(tmp_path, 13)
    start = time.perf_counter()
    assert cli.main(["count", "--kind", "vesurj", "--g", p20, "--h", star13,
                     "--format", "plain"]) == 0
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().out == "0\n"


def _cycle_file(tmp_path, n):
    return _graph_file(tmp_path, f"c{n}", n, [(i, (i + 1) % n) for i in range(n)])


def test_recover_size_guard_runs_before_the_coefficients(monkeypatch, tmp_path, capsys):
    def refuse(h):
        raise InternalCheckError(f"built coefficients for a {h.n}-vertex target")

    monkeypatch.setattr(interpolation, "alpha_for_vsurj", refuse)
    monkeypatch.setattr(kernels, "min_encoding", _refuse_canonicalization)
    assert cli.main(["recover", "--mode", "vsurj", "--h", _cycle_file(tmp_path, 20),
                     "--g", f"{G}/p3.graph"]) == 4
    assert "quotient enumeration is limited to 8 vertices" in capsys.readouterr().err


def test_recover_budget_runs_before_any_oracle_query(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise InternalCheckError("counted maps for a source over the budget")

    monkeypatch.setattr(kernels, "count_maps", refuse)
    monkeypatch.setattr(interpolation.CountingOracle, "eval", refuse)
    grid = [(20 * i + j, 20 * i + j + 1) for i in range(20) for j in range(19)]
    grid += [(20 * i + j, 20 * i + 20 + j) for i in range(19) for j in range(20)]
    start = time.perf_counter()
    assert cli.main(["recover", "--mode", "vsurj", "--h", f"{G}/k3.graph",
                     "--g", _graph_file(tmp_path, "grid20", 400, grid)]) == 4
    assert time.perf_counter() - start < 1.0
    assert "over the budget" in capsys.readouterr().err


def test_recover_budget_charges_every_oracle_query(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise InternalCheckError("queried the oracle over the budget")

    monkeypatch.setattr(interpolation.CountingOracle, "eval", refuse)
    # C16 into K3,3 is within the budget once, but not once per member of
    # K3,3's 189-member vesurj closed set.
    c16, k33 = cycle_graph(16), biclique(3, 3)
    once = kernels.state_bound(c16, k33, kernels.MODE_VESURJ)
    assert once <= cli.DEFAULT_BUDGET < 189 * once
    k33_file = _graph_file(tmp_path, "k33", 6, sorted(k33.edges))
    assert cli.main(["recover", "--mode", "vesurj", "--h", k33_file,
                     "--g", _cycle_file(tmp_path, 16)]) == 4
    err = capsys.readouterr().err
    assert f"189 oracle queries would build at least {189 * once}" in err
    assert "over the budget" in err


def test_recover_vesurj_serves_the_hard_targets(monkeypatch, tmp_path, capsys):
    targets = {
        "k33": _graph_file(tmp_path, "k33", 6, [(i, j) for i in range(3) for j in range(3, 6)]),
        "k24": _graph_file(tmp_path, "k24", 6, [(i, j) for i in range(2) for j in range(2, 6)]),
        "c6": _cycle_file(tmp_path, 6),
        "p6": _path_file(tmp_path, 6),
        "k5": _graph_file(tmp_path, "k5", 5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
    }
    members = {"k33": 189, "k24": 139, "c6": 120, "p6": 114, "k5": 89}
    for name, h in targets.items():
        assert cli.main(["recover", "--mode", "vesurj", "--h", h, "--g", f"{G}/p3.graph"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["closed_set"]) == report["oracle_queries"] == members[name]
        assert report["targets"] and all(t["match"] for t in report["targets"]), name
    # C7's closed set has 278 members: a cap below that refuses it (exit 4).
    monkeypatch.setattr(interpolation, "SYSTEM_MAX_SIZE", 256)
    interpolation._reduction_system.cache_clear()
    assert cli.main(["recover", "--mode", "vesurj", "--h", _cycle_file(tmp_path, 7),
                     "--g", f"{G}/p3.graph"]) == 4
    assert "systems are limited to 256 members" in capsys.readouterr().err


def test_each_request_walks_the_targets_components_once(monkeypatch, tmp_path, capsys):
    walked = []
    walk = families._components

    def counting(g):
        walked.append(g)
        return walk(g)

    monkeypatch.setattr(families, "_components", counting)
    # K2,3 is in F but not in C, so recover adds its hard-edge deletion.
    k23_edges = [(i, 2 + j) for i in range(2) for j in range(3)]
    k23, star3 = Graph(5, edges=k23_edges), Graph(4, edges=[(0, 1), (0, 2), (0, 3)])
    files = {k23: _graph_file(tmp_path, "k23", 5, k23_edges),
             star3: _graph_file(tmp_path, "star3", 4, sorted(star3.edges))}
    c5 = f"{G}/c5.graph"
    for h, argv in (
        (k23, ["count", "--kind", "hom", "--g", c5]),
        (k23, ["count", "--kind", "vsurj", "--g", c5]),
        (star3, ["count", "--kind", "vesurj", "--g", c5]),
        (k23, ["classify"]),
        (k23, ["recover", "--mode", "vesurj", "--g", f"{G}/p3.graph"]),
    ):
        walked.clear()
        assert cli.main(argv + ["--h", files[h]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.get("path", "polytime") == "polytime"
        assert walked.count(h) == 1, argv

    # verify: one walk per class for its own classification, plus one per
    # hard-edge deletion; the closure checks look subgraph classes up.
    expected = 0
    for _, h in enumerate_graphs(3):
        in_f, in_c = families.classify_F(h)[0], families.classify_C(h)[0]
        expected += 1 + (in_f and not in_c)
    walked.clear()
    assert cli._run_verify(3)["sections"]["families"]["violations"] == []
    assert len(walked) == expected


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _random_text(rng):
    alphabet = 'ab"\\/\n\t\x00\x1f\x7fé€😀 \ud800 '
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))


def _random_json(rng, depth):
    kind = rng.randrange(10 if depth else 6)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 2**70, -(3**50)]) + rng.randint(-99, 99)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([[], {}, (), [[]], {"": {}}, [(), {}]])
    if kind in (4, 5):
        return rng.choice(["", "key", "x" * 40])
    items = [_random_json(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind in (6, 7):
        return items if kind == 6 else tuple(items)
    return {_random_text(rng): item for item in items}


def test_json_text_matches_json_dumps_on_random_objects():
    rng = random.Random(34)
    for _ in range(3000):
        obj = _random_json(rng, rng.randint(0, 4))
        assert cli._json_text(obj) == _dumps(obj), obj


def test_json_text_matches_json_dumps_on_edge_values():
    strings = ["", "plain", 'say "hi"', "back\\slash", "a/b", "ünïcødé ∑ 漢字",
               "emoji 😀", "\x00\x01\x08\t\n\x0b\x0c\r\x1b\x1f\x7f", "  ",
               "lone \ud800 surrogate", "\udfff"]
    cases = strings + [{s: s for s in strings}, [strings], True, False, None,
                       0, -1, -(10**20), 2**64, (), [], {}, [[]], [{}], {"a": []},
                       {"a": {}, "b": [[], {}, ()]}, (1, (2, (3, ()))),
                       [True, False, None, (None,)], {"z": 1, "a": 2, "m": {"y": [], "b": None}}]
    for obj in cases:
        assert cli._json_text(obj) == _dumps(obj), obj


def test_json_text_prints_5000_digit_ints_with_the_digit_limit_lifted():
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        for big in (10**4999 + 12345, -(7**5916), {"count": 3**10480}):
            assert cli._json_text(big) == _dumps(big)
        assert len(cli._json_text(10**4999)) == 5000
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def test_rendered_fragment_reads_as_its_value_at_any_depth():
    # A fragment is written as rendered at its own indentation and is
    # rendered again from its value at any other.
    value = [{"graph": "vertices 1\n", "key": "0100"}, {"coeff": "-2", "n": [1, []]}, []]
    for newline in ("\n", "\n  ", "\n    "):
        fragment = cli._Rendered(value, newline)
        for nest in (lambda x: x, lambda x: {"a": x}, lambda x: {"a": [x, {"b": x}]}):
            assert cli._json_text(nest(fragment)) == _dumps(nest(value))


def test_json_text_refuses_other_types():
    for bad in (1.5, {1, 2}, [0, 0.0], {"a": frozenset()}, {"a": {"b": 2.0}}, object(), b"x"):
        with pytest.raises(TypeError):
            cli._json_text(bad)


def test_every_command_emits_what_json_dumps_would(monkeypatch, tmp_path, capsys):
    # recover emits its report with the system's alpha and closed_set text
    # spliced in, rendered once, so its stdout is held to the report that
    # reduction_demo returned.
    emitted, reports = [], []
    emit, demo = cli._emit_json, cli.reduction_demo

    def recording(obj):
        emitted.append(obj)
        emit(obj)

    def reporting(*args):
        reports.append(demo(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "_emit_json", recording)
    monkeypatch.setattr(cli, "reduction_demo", reporting)
    k23 = _graph_file(tmp_path, "k23", 5, [(i, 2 + j) for i in range(2) for j in range(3)])
    for argv in (
        ["count", "--kind", "vesurj", "--g", f"{G}/c5.graph", "--h", k23],
        ["count", "--kind", "aut", "--h", k23],
        ["classify", "--h", k23],
        ["inverse-column", "--h", k23],
        ["images", "--h", k23],
        ["verify", "--n-max", "3"],
    ):
        emitted.clear()
        assert cli.main(argv) == 0
        assert len(emitted) == 1
        assert capsys.readouterr().out == _dumps(emitted[0]) + "\n", argv
    # Two sources on one system, in both modes, then both again after the
    # system cache is cleared: the kept text now comes from another system
    # object with equal entries.
    for clear in (False, True):
        if clear:
            interpolation._reduction_system.cache_clear()
        for mode in ("vesurj", "vsurj"):
            for g in ("p3", "c5"):
                reports.clear()
                argv = ["recover", "--h", k23, "--g", f"{G}/{g}.graph", "--mode", mode]
                assert cli.main(argv) == 0
                assert len(reports) == 1
                assert isinstance(emitted[-1]["closed_set"], cli._Rendered), argv
                assert capsys.readouterr().out == _dumps(reports[0]) + "\n", argv
    # A report whose lists differ from the kept ones is written as it is.
    def altered(*args):
        report = demo(*args)
        report["alpha"][0]["coeff"] = "7"
        report["closed_set"].pop()
        reports.append(report)
        return report

    monkeypatch.setattr(cli, "reduction_demo", altered)
    reports.clear()
    assert cli.main(["recover", "--h", k23, "--g", f"{G}/p3.graph", "--mode", "vsurj"]) == 0
    assert capsys.readouterr().out == _dumps(reports[0]) + "\n"


def test_recover_checks_no_graph_it_parses_joins_or_decodes(monkeypatch, tmp_path, capsys):
    # The two files are checked line by line, the system's members come
    # from the package's own encodings and each query joins two checked
    # graphs: none of these goes through Graph.__post_init__ again.
    sites = {graphs.parse_graph.__code__, graphs.disjoint_union.__code__,
             canonical._decode.__code__}

    def site(g):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in sites:
            frame = frame.f_back
        return frame and frame.f_code.co_name

    k23 = _graph_file(tmp_path, "k23", 5, [(i, 2 + j) for i in range(2) for j in range(3)])
    interpolation._reduction_system.cache_clear()
    checked = record_graphs(monkeypatch, site, through=("checked",))
    trusted = record_graphs(monkeypatch, site, through=("trusted",))
    assert cli.main(["recover", "--h", k23, "--g", f"{G}/p3.graph", "--mode", "vesurj"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_queries"] == trusted.count("disjoint_union")
    assert [name for name in checked if name] == []
    assert set(trusted) == {"parse_graph", "disjoint_union", "_decode"}


def test_surjective_budget_plans_only_the_components(tmp_path, capsys):
    # 2xP3 into K3: the budget check and the fold read P3's schedule, and
    # plan the 6-vertex union nowhere.
    g = _graph_file(tmp_path, "p3p3", 6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for cache in (kernels._schedule, kernels._split, kernels._component, kernels._profile):
        cache.cache_clear()
    assert cli.main(["count", "--kind", "vsurj", "--g", g, "--h", f"{G}/k3.graph",
                     "--force-bruteforce", "--format", "plain"]) == 0
    # 12 x 12 homomorphisms, less the 3 x 2 x 2 that miss a colour.
    assert capsys.readouterr() == ("132\n", "path: bruteforce\n")
    assert kernels._schedule.cache_info().misses == 1
    kernels._schedule(path_graph(3))
    assert kernels._schedule.cache_info().misses == 1


def test_surjective_count_from_a_long_component_is_fast(tmp_path, capsys):
    # P1000+K1 into K3, bounded and counted from P1000's edge-list key; a
    # key of one bit per vertex pair made this take 8.2 s on a 2-vCPU Xeon.
    edges = [(v, v + 1) for v in range(999)]
    g = _graph_file(tmp_path, "p1000k1", 1001, edges)
    for cache in (kernels._schedule, kernels._split, kernels._component, kernels._profile):
        cache.cache_clear()
    start = time.perf_counter()
    assert cli.main(["count", "--kind", "vsurj", "--g", g, "--h", f"{G}/k3.graph",
                     "--format", "plain"]) == 0
    assert time.perf_counter() - start < 2
    want = inversion.vsurj_via_inversion(Graph(1001, (), edges), cycle_graph(3))
    assert capsys.readouterr().out == f"{want}\n"
