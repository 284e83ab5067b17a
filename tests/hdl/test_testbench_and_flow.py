"""Testbench generation, validation tightening, flow hook, golden files."""

from __future__ import annotations

import os

import numpy as np
import pytest

from helpers import half_adder_netlist, popcount_netlist

from repro.circuits.builder import LogicBuilder
from repro.circuits.library import umc_ll_library
from repro.circuits.netlist import Cell
from repro.circuits.validate import check_connectivity
from repro.datapath.datapath import DatapathConfig, DualRailDatapath
from repro.hdl import emit_verilog, export_netlist, generate_datapath_testbench, generate_testbench
from repro.hdl.primitives import emit_primitives
from repro.synth.flow import HdlExportOptions, synthesize
from repro.synth.reports import area_report, leakage_report
from repro.tm.inference import InferenceModel

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_half_adder.v")
GOLDEN_PRIMITIVES = os.path.join(os.path.dirname(__file__), "golden_primitives.v")


class TestGenericTestbench:
    def test_testbench_is_self_checking_and_deterministic(self):
        netlist = half_adder_netlist()
        first = generate_testbench(netlist, num_vectors=8)
        second = generate_testbench(netlist, num_vectors=8)
        assert first == second
        assert "TESTBENCH PASSED" in first
        assert "TESTBENCH FAILED" in first
        assert "$finish;" in first
        assert first.count("// vector ") == 8

    def test_explicit_stimulus_is_respected(self):
        builder = LogicBuilder("tiny")
        a, b = builder.input("a"), builder.input("b")
        builder.output("y", builder.and_(a, b))
        text = generate_testbench(
            builder.netlist, stimulus={"a": [1, 1], "b": [0, 1]}
        )
        assert "(expected 0)" in text
        assert "(expected 1)" in text

    def test_unknown_goldens_are_skipped_not_checked(self):
        builder = LogicBuilder("latchy")
        a = builder.input("a")
        # C-element against a constant never resolves for a != const.
        c = builder.c_element(a, builder.tie(1))
        builder.output("y", c)
        text = generate_testbench(builder.netlist, stimulus={"a": [0]})
        assert "unknown in golden model; not checked" in text

    def test_ragged_stimulus_is_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            generate_testbench(half_adder_netlist(),
                               stimulus={"a_p": [0], "a_n": [1, 0]})


class TestDatapathTestbench:
    @pytest.fixture(scope="class")
    def datapath(self):
        config = DatapathConfig(num_features=3, clauses_per_polarity=4)
        return DualRailDatapath(config)

    def test_handshake_testbench_checks_both_phases(self, datapath):
        model = InferenceModel.random(
            datapath.config.num_clauses, datapath.config.num_features, seed=5
        )
        text = generate_datapath_testbench(datapath, model, num_operands=4)
        assert text.count("// operand ") == 4
        assert "spacer phase" in text
        assert "valid phase" in text
        assert "expected verdict" in text
        # done is checked low at spacer and high at valid.
        assert "net done = %b (expected 0)" in text
        assert "net done = %b (expected 1)" in text

    def test_golden_cross_check_rejects_wrong_model(self, datapath):
        model = InferenceModel.random(
            datapath.config.num_clauses, datapath.config.num_features, seed=5
        )
        wrong = InferenceModel(np.logical_not(model.exclude))
        with pytest.raises(ValueError, match="golden mismatch"):
            generate_datapath_testbench(datapath, wrong, exclude=model.exclude,
                                        num_operands=8)


class TestConnectivityValidation:
    def test_clean_netlist_passes(self):
        assert check_connectivity(half_adder_netlist()).ok

    def test_dangling_net_is_an_error(self):
        netlist = half_adder_netlist()
        netlist.get_net("floater")
        report = check_connectivity(netlist)
        assert any("dangling" in e and "floater" in e for e in report.errors)

    def test_multiply_driven_net_is_an_error(self):
        netlist = half_adder_netlist()
        victim = next(iter(netlist.cells.values()))
        rogue = Cell(name="rogue", cell_type="INV",
                     inputs={"A": netlist.primary_inputs[0]},
                     outputs={"Y": victim.output_nets()[0]})
        netlist.cells["rogue"] = rogue
        report = check_connectivity(netlist)
        assert any("multiply driven" in e for e in report.errors)

    def test_stale_driver_bookkeeping_is_an_error(self):
        netlist = half_adder_netlist()
        net = netlist.nets[next(iter(netlist.cells.values())).output_nets()[0]]
        net.driver = ("ghost", "Y")
        report = check_connectivity(netlist)
        assert any("ghost" in e for e in report.errors)


class TestSynthesizeExportHook:
    def test_export_directory_shorthand(self, tmp_path):
        library = umc_ll_library()
        result = synthesize(
            popcount_netlist(5), library, enforce_unate=True,
            export=str(tmp_path / "rtl"),
        )
        assert result.hdl is not None
        assert result.hdl.verified
        for path in result.hdl.paths.values():
            assert os.path.exists(path)
        design = open(result.hdl.paths["design"], encoding="utf-8").read()
        assert design == emit_verilog(result.netlist)

    def test_export_options_in_memory(self):
        library = umc_ll_library()
        options = HdlExportOptions(directory=None, testbench_vectors=4,
                                   roundtrip_vectors=32)
        result = synthesize(popcount_netlist(3), library, export=options)
        assert result.hdl.paths == {}
        assert result.hdl.verified
        assert "TESTBENCH PASSED" in result.hdl.testbench

    def test_export_refuses_invalid_netlists(self):
        library = umc_ll_library()
        netlist = half_adder_netlist()
        netlist.get_net("floater")
        with pytest.raises(ValueError, match="refusing HDL export"):
            synthesize(netlist, library, export=HdlExportOptions())

    def test_no_export_by_default(self):
        result = synthesize(popcount_netlist(3), umc_ll_library())
        assert result.hdl is None


class TestGoldenFileStability:
    def test_half_adder_matches_checked_in_golden_file(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = handle.read()
        assert emit_verilog(half_adder_netlist()) == golden

    def test_primitives_match_checked_in_golden_file(self):
        """Every registry cell's behavioral model, byte for byte."""
        with open(GOLDEN_PRIMITIVES, encoding="utf-8") as handle:
            golden = handle.read()
        assert emit_primitives() == golden

    def test_export_bundle_is_deterministic(self):
        first = export_netlist(popcount_netlist(3), testbench_vectors=4,
                               roundtrip_vectors=16)
        second = export_netlist(popcount_netlist(3), testbench_vectors=4,
                                roundtrip_vectors=16)
        assert first.design == second.design
        assert first.primitives == second.primitives
        assert first.testbench == second.testbench


class TestReportDeterminism:
    def test_reports_and_emission_reproducible_across_builds(self):
        library = umc_ll_library()
        config = DatapathConfig(num_features=2, clauses_per_polarity=2)

        def snapshot():
            netlist = DualRailDatapath(config, library=library).circuit.netlist
            area = area_report(netlist, library)
            leak = leakage_report(netlist, library)
            return (
                emit_verilog(netlist),
                area.total, area.sequential, tuple(area.by_type.items()),
                leak.total_nw, tuple(leak.by_type.items()),
            )

        assert snapshot() == snapshot()
