"""End-to-end "synthesis" flow: map, check, report.

This is the stand-in for the paper's Synopsys Design Compiler runs: the
input is a structural netlist (hand-architected, exactly as in the paper),
the output is a mapped netlist plus the area/leakage/timing reports that
feed Table I.  No logic restructuring is attempted — the paper's circuits
are already architected at cell granularity, so "synthesis" is technology
mapping plus reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist
from repro.circuits.validate import (
    ValidationReport,
    check_connectivity,
    check_structure,
    check_unate_only,
)
from repro.sim.sta import TimingReport, clock_period_from_critical

from .mapping import map_to_library
from .reports import AreaReport, LeakageReport, area_report, leakage_report, timing_report


@dataclass
class HdlExportOptions:
    """Configuration of the post-mapping HDL export hook of :func:`synthesize`.

    Attributes
    ----------
    directory:
        Where to write ``<design>.v`` / ``primitives.v`` / ``tb_<design>.v``;
        ``None`` keeps the export in memory only.
    testbench:
        Generate the self-checking testbench (skipped automatically for
        clocked netlists).
    testbench_vectors / roundtrip_vectors / seed:
        Passed through to :func:`repro.hdl.export.export_netlist`.
    verify:
        Run the emit → parse → equivalence round trip on the mapped netlist.
    """

    directory: Optional[str] = None
    testbench: bool = True
    testbench_vectors: int = 32
    verify: bool = True
    roundtrip_vectors: int = 256
    seed: int = 2021


@dataclass
class SynthesisResult:
    """Everything the reporting layer needs about one mapped design."""

    design_name: str
    library_name: str
    netlist: Netlist
    area: AreaReport
    leakage: LeakageReport
    timing: TimingReport
    clock_period: Optional[float]
    validation: ValidationReport
    hdl: Optional[object] = field(default=None, repr=False)

    @property
    def is_sequentially_clocked(self) -> bool:
        """``True`` for the synchronous baseline (a clock period was computed)."""
        return self.clock_period is not None

    def metrics(self) -> dict:
        """Flat scalar summary of the mapped design — the DSE area hook.

        The design-space exploration records these alongside the simulated
        quantities; keeping the extraction here means any future report
        column (e.g. routed wirelength) becomes sweepable by adding it once.
        """
        return {
            "area_um2": self.area.total,
            "sequential_area_um2": self.area.sequential,
            "combinational_area_um2": self.area.combinational,
            "completion_detection_area_um2": self.area.completion_detection,
            "cell_count": self.area.cell_count,
            "sequential_cell_count": self.area.sequential_cell_count,
            "leakage_nw": self.leakage.total_nw,
            "critical_path_ps": self.timing.max_over_outputs,
            "clock_period_ps": self.clock_period,
        }


def synthesize(
    netlist: Netlist,
    library: CellLibrary,
    vdd: Optional[float] = None,
    clocked: bool = False,
    enforce_unate: bool = False,
    export: Optional[Union[str, HdlExportOptions]] = None,
) -> SynthesisResult:
    """Map *netlist* onto *library* and produce its reports.

    Parameters
    ----------
    clocked:
        ``True`` for the synchronous baseline: the timing report breaks
        paths at flip-flops and a minimum clock period is computed.
    enforce_unate:
        ``True`` for dual-rail designs: the mapped netlist is checked to
        contain unate cells only (Requirement 2), and a violation is
        recorded in the validation report.
    export:
        Post-mapping HDL export hook.  Pass a directory path (shorthand) or
        an :class:`HdlExportOptions` to emit the mapped netlist as
        structural Verilog plus behavioral primitives and a self-checking
        testbench, round-trip verified in-process.  The resulting
        :class:`repro.hdl.export.HdlExport` lands on ``result.hdl``.
        Export refuses netlists whose validation found errors.
    """
    mapped = map_to_library(netlist, library)
    validation = check_structure(mapped)
    validation.extend(check_connectivity(mapped))
    if enforce_unate:
        validation.extend(check_unate_only(mapped))
    area = area_report(mapped, library)
    leak = leakage_report(mapped, library, vdd=vdd)
    timing = timing_report(mapped, library, vdd=vdd, break_at_sequential=clocked)
    # A clocked timing report is the register-to-register analysis itself.
    clock_period = (
        clock_period_from_critical(timing.critical_delay) if clocked else None
    )
    hdl = None
    if export is not None:
        if validation.errors:
            raise ValueError(
                f"refusing HDL export of {netlist.name!r}: validation found "
                f"{len(validation.errors)} error(s), e.g. {validation.errors[0]}"
            )
        options = (
            export if isinstance(export, HdlExportOptions)
            else HdlExportOptions(directory=export)
        )
        # Imported here so repro.synth stays importable without repro.hdl
        # (and to keep the dependency direction hdl -> circuits one-way).
        from repro.hdl.export import export_netlist

        hdl = export_netlist(
            mapped,
            directory=options.directory,
            testbench=options.testbench,
            testbench_vectors=options.testbench_vectors,
            verify=options.verify,
            roundtrip_vectors=options.roundtrip_vectors,
            seed=options.seed,
        )
    return SynthesisResult(
        design_name=netlist.name,
        library_name=library.name,
        netlist=mapped,
        area=area,
        leakage=leak,
        timing=timing,
        clock_period=clock_period,
        validation=validation,
        hdl=hdl,
    )
