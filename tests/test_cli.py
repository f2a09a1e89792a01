"""Command-line interface: wiring, formats, exit codes."""

import argparse
import io
import json

import pytest

from lietrees import cli
from lietrees.cli import run
from lietrees.documents import (automorphism_to_doc, dump_json,
                                expansion_from_doc, expansion_to_doc,
                                tree_combo_from_text)
from lietrees.free_lie import LieSeries, witt_dim
from lietrees.jacobi import eta
from lietrees.johnson import LieAutomorphism, random_ic_element, tau_to_trees
from lietrees.tensor_hopf import magnus_expansion
from lietrees.symplectic import verify_symplectic


class TestExpand:
    def test_construct_writes_verifiable_doc(self, tmp_path, capsys):
        out = tmp_path / "theta.json"
        assert run(["expand", "construct", "--genus", "2", "--degree", "4",
                    "--out", str(out)]) == 0
        theta = expansion_from_doc(json.loads(out.read_text()))
        assert verify_symplectic(theta, 4).ok

    def test_construct_stdout(self, capsys):
        assert run(["expand", "construct", "--genus", "1", "--degree", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["genus"] == 1

    def test_verify_accepts_constructed(self, tmp_path, capsys):
        out = tmp_path / "theta.json"
        run(["expand", "construct", "--genus", "1", "--degree", "4",
             "--out", str(out)])
        code = run(["expand", "verify", "--in", str(out), "--degree", "4"])
        assert code == 0
        msg = capsys.readouterr().out
        assert "symplectic mod degree 5" in msg

    def test_paper_example_pipes_into_verify(self, tmp_path, capsys):
        assert run(["expand", "paper-example", "--genus", "2"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "pe.json"
        path.write_text(text)
        assert run(["expand", "verify", "--in", str(path), "--degree", "4"]) == 0

    def test_verify_rejects_bad_expansion(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(dump_json(expansion_to_doc(magnus_expansion(1, 4))))
        code = run(["expand", "verify", "--in", str(path), "--degree", "4"])
        assert code == 1
        assert "not group-like" in capsys.readouterr().out

    def test_malformed_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{\"genus\": 1}\n")
        code = run(["expand", "verify", "--in", str(path), "--degree", "3"])
        assert code == 2
        assert capsys.readouterr().err


class TestHomology:
    def test_dims_table(self, capsys):
        assert run(["homology", "dims", "--genus", "2", "--class", "2",
                    "--n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["degree", "dimension"]
        rows = {int(a): int(b) for a, b in (ln.split() for ln in lines[1:])}
        assert rows == {4: 20, 5: 36}

    def test_empty_homology(self, capsys):
        assert run(["homology", "dims", "--genus", "1", "--class", "1",
                    "--n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1


class TestPhi:
    def test_rank_line(self, capsys):
        assert run(["phi", "rank", "--genus", "2", "--class", "1"]) == 0
        assert capsys.readouterr().out.strip() == "rank 4"


class TestPastTheSuite:
    # closed form of dim H3 in degree d: 2g W(2g, d-1) - W(2g, d), for d
    # in k+2..2k+1, where all of H3(L/L_{>k}) sits
    H3_GENUS_3_CLASS_3 = {d: 6 * witt_dim(6, d - 1) - witt_dim(6, d)
                          for d in range(5, 8)}

    def test_closed_form_values(self):
        assert self.H3_GENUS_3_CLASS_3 == {5: 336, 6: 1589, 7: 6420}

    def test_dims_genus_3_class_3(self, capsys):
        assert run(["homology", "dims", "--genus", "3", "--class", "3",
                    "--n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {int(a): int(b) for a, b in (ln.split() for ln in lines[1:])}
        assert rows == self.H3_GENUS_3_CLASS_3

    def test_phi_rank_genus_3_class_3(self, capsys):
        assert run(["phi", "rank", "--genus", "3", "--class", "3"]) == 0
        rank = sum(self.H3_GENUS_3_CLASS_3.values())
        assert rank == 8345
        assert capsys.readouterr().out == f"rank {rank}\n"


class TestJohnson:
    def test_tau_emits_tree_document(self, tmp_path, capsys):
        psi = random_ic_element(2, 1, 3, 2)
        path = tmp_path / "aut.json"
        path.write_text(dump_json(automorphism_to_doc(psi)))
        assert run(["johnson", "tau", "--aut", str(path), "--k", "1"]) == 0
        text = capsys.readouterr().out
        combo = tree_combo_from_text(text, 2)
        assert eta(combo) == eta(tau_to_trees(psi, 1))

    def test_tau_rejects_automorphism_below_the_level(self, tmp_path, capsys):
        images = {l: LieSeries.gen(2, 4, l) for l in range(4)}
        images[0] = images[0] + LieSeries(2, 4, {(2, 3): 1})   # a1 + [a2,b2]
        path = tmp_path / "aut.json"
        path.write_text(dump_json(automorphism_to_doc(
            LieAutomorphism(2, 4, images))))
        assert run(["johnson", "tau", "--aut", str(path), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not in filtration level 2" in captured.err


@pytest.mark.parametrize("argv", [["johnson", "tau", "--k", "2"],
                                  ["morita", "mk", "--k", "2"]])
def test_automorphism_document_on_stdin(argv, tmp_path, monkeypatch, capsys):
    """Without --aut the command reads the document from standard input
    and prints what it prints with --aut FILE."""
    doc = dump_json(automorphism_to_doc(random_ic_element(2, 2, 1, 4)))
    path = tmp_path / "aut.json"
    path.write_text(doc)
    assert run([*argv, "--aut", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert from_file
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(argv) == 0
    assert capsys.readouterr().out == from_file


class TestMorita:
    def test_zero_for_identity(self, tmp_path, capsys):
        psi = random_ic_element(2, 1, 0, 2)
        from lietrees.johnson import compose_aut, invert_aut
        trivial = compose_aut(psi, invert_aut(psi))
        path = tmp_path / "id.json"
        path.write_text(dump_json(automorphism_to_doc(trivial)))
        assert run(["morita", "mk", "--aut", str(path), "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_coordinate_rows(self, tmp_path, capsys):
        psi = random_ic_element(2, 1, 1, 2)
        path = tmp_path / "aut.json"
        path.write_text(dump_json(automorphism_to_doc(psi)))
        assert run(["morita", "mk", "--aut", str(path), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("degree 3:")

    def test_rejects_automorphism_moving_the_symplectic_element(
            self, tmp_path, capsys):
        images = {l: LieSeries.gen(2, 4, l) for l in range(4)}
        images[0] = images[0] + LieSeries(2, 4, {(2, 2, 3): 1})  # [a2,[a2,b2]]
        path = tmp_path / "aut.json"
        path.write_text(dump_json(automorphism_to_doc(
            LieAutomorphism(2, 4, images))))
        assert run(["morita", "mk", "--aut", str(path), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("automorphism does not fix the symplectic element modulo "
                "degree 2k+1") in captured.err


class TestSuite:
    def test_single_criterion_deterministic(self, capsys):
        # run the cheapest criterion twice and compare transcripts
        from lietrees.suite import format_result, run_criterion
        a = format_result(run_criterion(6, seed=1))
        b = format_result(run_criterion(6, seed=1))
        assert a == b
        assert a.startswith("PASS")


class TestErrors:
    def test_missing_file_exits_2(self, capsys):
        code = run(["expand", "verify", "--in", "/nonexistent.json",
                    "--degree", "3"])
        assert code == 2
        assert capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_flag_value_exits_2(self, capsys):
        assert run(["homology", "dims", "--genus", "2", "--class", "2",
                    "--n", "7"]) == 2

    @pytest.mark.parametrize("argv", [
        ["homology", "dims", "--genus", "0", "--class", "2", "--n", "3"],
        ["homology", "dims", "--genus", "-1", "--class", "2", "--n", "3"],
        ["phi", "rank", "--genus", "1", "--class", "0"],
        ["expand", "construct", "--genus", "0", "--degree", "3"],
    ])
    def test_genus_and_class_domain_exits_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestParser:
    def test_several_runs_build_the_parser_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        argv = ["homology", "dims", "--genus", "1", "--class", "1", "--n", "3"]
        for _ in range(3):
            assert run(argv) == 0
        assert run(["phi", "rank", "--genus", "1", "--class", "1"]) == 0
        assert built.count("lietrees") == 1

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "lietrees: error: argument group: invalid choice: "
                         "'frobnicate'"),
        (["phi", "rank", "--genus", "1"], "lietrees phi rank: error: the "
         "following arguments are required: --class"),
        (["homology", "dims", "--genus", "2", "--class", "2", "--n", "7"],
         "lietrees homology dims: error: argument --n: invalid choice: 7"),
    ])
    def test_usage_errors_after_a_run_exit_2_on_stderr(self, argv, message,
                                                       capsys):
        assert run(["phi", "rank", "--genus", "1", "--class", "1"]) == 0
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: lietrees")
        assert message in captured.err
