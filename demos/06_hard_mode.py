"""The built-in benchmark pair: one detectable capture, one control.

preset_scenario9 builds a ~50k-flow capture whose bot sources beacon with
machine regularity; the hard variant reshapes those sources to background
statistics so a windowed model has nothing to grip. A detector that scores
well on both is fooling itself.
"""
import time

from flowsift import (FlowTable, SplitSpec, WindowConfig, build_matrix,
                      parse_line, preset_scenario9, run_single, synthesize)


def load(hard):
    cfg = preset_scenario9(seed=42, hard=hard)
    return FlowTable.from_records(parse_line(line, line_no=i + 1)
                                  for i, line in enumerate(synthesize(cfg)))


def main():
    for tag, hard in (("regular beaconing", False), ("hard mode", True)):
        t0 = time.perf_counter()
        flows = load(hard)
        matrix = build_matrix(flows, WindowConfig(width_s=90, stride_s=15))
        train, test = run_single(matrix, SplitSpec())   # chronological
        dt = time.perf_counter() - t0
        print(f"=== {tag} ({len(flows)} flows, {dt:.1f}s) ===")
        print(f"  train P={train.precision:.3f} R={train.recall:.3f} "
              f"F1={train.f1:.3f}")
        print(f"  test  P={test.precision:.3f} R={test.recall:.3f} "
              f"F1={test.f1:.3f}")
        print()
    print("same geometry, same optimizer; only the traffic shape moved.")


if __name__ == "__main__":
    main()
