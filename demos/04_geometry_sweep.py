"""Sweep window geometry, then stress one cell under repeated seeds.

Wide windows smooth the signal but cost rows; short strides multiply rows
but correlate them. The grid makes that trade visible, and repeat_runs shows
how much of a cell's score is split luck.
"""
from flowsift import (ClassProfile, FlowTable, SplitSpec, SynthConfig,
                      histogram, parse_line, repeat_runs, run_grid,
                      sweep_csv, synthesize)


def capture(seed=23):
    cfg = SynthConfig(
        duration_s=1200.0,
        background=ClassProfile(
            n_sources=10, rate_per_s=0.04, dur_dist=("exp", 15.0),
            pkts_p=0.05, bpp_dist=("lognormal", 6.0, 0.8),
            protos=("tcp", "udp"), proto_weights=(0.8, 0.2),
            dports=(80, 443, 53), label="flow=Background-TCP-Established",
            src_prefix="10.9"),
        normal=ClassProfile(
            n_sources=3, rate_per_s=0.02, dur_dist=("lognormal", 0.0, 0.8),
            pkts_p=0.1, bpp_dist=("normal", 700.0, 150.0), protos=("tcp",),
            proto_weights=(1.0,), dports=(80,),
            label="flow=To-Normal-V42-HTTP", src_prefix="147.32.84"),
        botnet=ClassProfile(
            n_sources=2, rate_per_s=0.5, dur_dist=("normal", 0.1, 0.02),
            pkts_p=0.5, bpp_dist=("normal", 70.0, 3.0), protos=("tcp",),
            proto_weights=(1.0,), dports=(6667,),
            label="flow=From-Botnet-V42-TCP-Attempt", src_prefix="147.32.85"),
        cnc=ClassProfile(
            n_sources=1, rate_per_s=0.15, dur_dist=("normal", 0.05, 0.005),
            pkts_p=0.7, bpp_dist=("normal", 66.0, 1.0), protos=("tcp",),
            proto_weights=(1.0,), dports=(443,),
            label="flow=From-Botnet-V42-TCP-CC", src_prefix="147.32.86"),
        seed=seed)
    return FlowTable.from_records(parse_line(line, line_no=i + 1)
                                  for i, line in enumerate(synthesize(cfg)))


def main():
    flows = capture()
    print(f"{len(flows)} flows over 1200s")

    print()
    print("=== 3x3 grid, chronological split, one CSV row per cell ===")
    result = run_grid(flows, widths=[30, 60, 120], strides=[15, 60, 240],
                      spec=SplitSpec())
    print(sweep_csv(result), end="")

    gap_cells = [c for c in result.cells if c.status == "ok:stride_gap"]
    print()
    print(f"{len(result.ok_cells)}/{len(result.cells)} cells succeeded; "
          f"{len(gap_cells)} ran with stride > width (flows fall in gaps, "
          f"flagged, still scored)")

    f1s = [c.metric("test_f1") for c in result.ok_cells]
    hist = histogram(f1s, bin_width=0.1)
    print()
    print("=== test F1 spread across the grid ===")
    for i, count in enumerate(hist.counts):
        lo, hi = hist.bin_edges[i], hist.bin_edges[i + 1]
        print(f"  [{lo:.1f}, {hi:.1f})  {'#' * count}")
    # a perfect 1.0 sits past the last closed bin edge
    print(f"  overflow    {'#' * hist.overflow}")

    print()
    print("=== one cell, four random splits ===")
    # the spec carries the first seed; run i splits under seed + i
    runs, dispersion = repeat_runs(
        flows, width_s=60, stride_s=30, runs=4,
        spec=SplitSpec(mode="stratified_random", seed=1))
    for r in runs:
        print(f"  seed {r.seed}: test P={r.test.precision:.3f} "
              f"R={r.test.recall:.3f} F1={r.test.f1:.3f}")
    spread = dispersion["test_f1"]
    print(f"  F1 range {spread['range']:.3f} "
          f"(min {spread['min']:.3f}, max {spread['max']:.3f})")


if __name__ == "__main__":
    main()
