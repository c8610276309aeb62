"""End-to-end model walk: synthesize, window, split, fit, score, persist.

The optimizer is damped Newton (iteratively reweighted least squares) with
backtracking from the full step and balanced class weights, so the loss trace
is monotone, the fit stops at the optimum rather than at an iteration cap, and
every number here reproduces bit-for-bit on rerun.
"""
import tempfile
from pathlib import Path

from flowsift import (ClassProfile, FlowTable, SplitSpec, SynthConfig,
                      WindowConfig, build_matrix, evaluate, fit, load_model,
                      parse_line, save_model, split, synthesize)


def small_capture(seed=11):
    """900 seconds, a dozen sources, two of them bots."""
    cfg = SynthConfig(
        duration_s=900.0,
        background=ClassProfile(
            n_sources=8, rate_per_s=0.05, dur_dist=("exp", 15.0), pkts_p=0.05,
            bpp_dist=("lognormal", 6.0, 0.8), protos=("tcp", "udp"),
            proto_weights=(0.8, 0.2), dports=(80, 443, 53),
            label="flow=Background-TCP-Established", src_prefix="10.9"),
        normal=ClassProfile(
            n_sources=2, rate_per_s=0.03, dur_dist=("lognormal", 0.0, 0.8),
            pkts_p=0.1, bpp_dist=("normal", 700.0, 150.0), protos=("tcp",),
            proto_weights=(1.0,), dports=(80,),
            label="flow=To-Normal-V42-HTTP", src_prefix="147.32.84"),
        botnet=ClassProfile(
            n_sources=2, rate_per_s=0.6, dur_dist=("normal", 0.1, 0.02),
            pkts_p=0.5, bpp_dist=("normal", 70.0, 3.0), protos=("tcp",),
            proto_weights=(1.0,), dports=(6667,),
            label="flow=From-Botnet-V42-TCP-Attempt", src_prefix="147.32.85"),
        cnc=ClassProfile(
            n_sources=1, rate_per_s=0.2, dur_dist=("normal", 0.05, 0.005),
            pkts_p=0.7, bpp_dist=("normal", 66.0, 1.0), protos=("tcp",),
            proto_weights=(1.0,), dports=(443,),
            label="flow=From-Botnet-V42-TCP-CC", src_prefix="147.32.86"),
        seed=seed)
    return FlowTable.from_records(parse_line(line, line_no=i + 1)
                                  for i, line in enumerate(synthesize(cfg)))


def main():
    flows = small_capture()
    print(f"synthesized {len(flows)} flows over 900s")

    matrix = build_matrix(flows, WindowConfig(width_s=60, stride_s=30))
    pos = int(matrix.y.sum())
    print(f"windowed into {matrix.n_rows} rows, {pos} of them positive")

    train_m, test_m = split(matrix, SplitSpec(mode="chronological",
                                              train_fraction=0.7,
                                              purge_gap_s=60))
    print(f"chronological split: {train_m.n_rows} train / {test_m.n_rows} test"
          f" (60s purge between them)")

    model, report = fit(train_m)
    print()
    print("=== training ===")
    print(f"converged: {report.converged} after {report.iterations_run} steps")
    trace = report.loss_trace
    print(f"loss: {trace[0]:.6f} -> {trace[1]:.6f} -> ... -> {trace[-1]:.6f}")
    ranked = sorted(zip(model.feature_names, model.weights),
                    key=lambda t: -abs(t[1]))
    print("heaviest features:")
    for name, w in ranked[:4]:
        print(f"  {name:18s} {w:+.3f}")

    print()
    print("=== scoring ===")
    for tag, part in (("train", train_m), ("test", test_m)):
        r = evaluate(model, part)
        print(f"  {tag:5s} P={r.precision:.3f} R={r.recall:.3f} F1={r.f1:.3f}"
              f"  (tp={r.confusion.tp} fp={r.confusion.fp} fn={r.confusion.fn})")

    print()
    print("=== persistence ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.json")
        save_model(path, model)
        again = load_model(path)
        r1, r2 = evaluate(model, test_m), evaluate(again, test_m)
        print(f"saved, reloaded, rescored: F1 {r1.f1:.6f} == {r2.f1:.6f}: "
              f"{r1.f1 == r2.f1 and again == model}")


if __name__ == "__main__":
    main()
