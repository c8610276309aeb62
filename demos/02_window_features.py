"""Window membership arithmetic and the per-group feature matrix.

A flow belongs to every window [k*stride, k*stride + width) that contains
its start time, so overlapping geometries multiply rows while stride > width
leaves gaps. Each (window, source) group becomes one 21-column feature row.
"""
from flowsift import (FEATURE_NAMES, FlowTable, WindowConfig,
                      aggregate_stats, build_matrix, parse_line,
                      window_indices)

US = 1_000_000


def tiny_capture():
    # two chatty sources plus one lone flow inside a coverage gap
    rows = []
    base = "2011/08/10 10:00:{sec:02d}.000000,{dur},tcp,{src},1025,   ->," \
           "10.0.0.1,80,SPA,0,0,{pkts},{byts},{sbyts},{label}"
    plan = [
        (0, "147.32.85.1", 4, 0.5, "flow=From-Botnet-V42-TCP-Attempt"),
        (5, "147.32.85.1", 2, 0.1, "flow=From-Botnet-V42-TCP-Attempt"),
        (12, "147.32.84.9", 3, 1.0, "flow=Background-TCP-Established"),
        (31, "147.32.84.9", 6, 2.0, "flow=Background-TCP-Established"),
        (47, "147.32.84.9", 1, 0.2, "flow=Background-TCP-Established"),
    ]
    for sec, src, pkts, dur, label in plan:
        rows.append(parse_line(base.format(
            sec=sec, dur=dur, src=src, pkts=pkts, byts=pkts * 100,
            sbyts=pkts * 60, label=label), line_no=len(rows) + 1))
    return FlowTable.from_records(rows)


def main():
    flows = tiny_capture()
    origin = int(flows.start_time_us.min())

    print("=== membership: width 20s, stride 10s (overlap 2x) ===")
    cfg = WindowConfig(width_s=20, stride_s=10, origin_us=origin)
    for f in flows:
        offset = (f.start_time_us - origin) // US
        print(f"  t=+{offset:2d}s  -> windows {window_indices(f.start_time_us, cfg)}")

    print()
    print("=== stride 30s > width 10s leaves gaps ===")
    gappy = WindowConfig(width_s=10, stride_s=30, origin_us=origin)
    print(f"  coverage_gap: {gappy.coverage_gap}")
    for f in flows:
        offset = (f.start_time_us - origin) // US
        hit = window_indices(f.start_time_us, gappy)
        print(f"  t=+{offset:2d}s  -> {hit if hit else 'dropped'}")

    print()
    print("=== aggregates over one value list ===")
    stats = aggregate_stats([1.0, 2.0, 3.0, 4.0])
    print(f"  sum={stats.sum} mean={stats.mean} std={stats.std:.9f} "
          f"max={stats.max} median={stats.median}")

    print()
    print("=== the matrix: one row per (window, source) group ===")
    matrix = build_matrix(flows, cfg)
    print(f"  {matrix.n_rows} rows x {matrix.n_features} features")
    print(f"  feature names: {', '.join(FEATURE_NAMES[:4])}, ... "
          f"({len(FEATURE_NAMES)} total)")
    shown = ["flow_count", "tot_pkts_sum", "tot_bytes_mean", "dur_max"]
    view = matrix.select(shown)
    for i in range(matrix.n_rows):
        vals = "  ".join(f"{name}={v:g}" for name, v in zip(shown, view.X[i]))
        print(f"  window {matrix.window_index[i]:2d}  {matrix.src_addr[i]:12s} "
              f"y={int(matrix.y[i])}  {vals}")


if __name__ == "__main__":
    main()
