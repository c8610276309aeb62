"""Trim the 21-feature set three ways: correlation, elimination, projection.

Windowed aggregates are heavily collinear by construction (sums track means
times counts), so pruning costs little accuracy and buys interpretability.
"""
from flowsift import (ClassProfile, FlowTable, SplitSpec, SynthConfig,
                      WindowConfig, backward_elimination, build_matrix,
                      correlation_filter, parse_line, pca_fit,
                      pca_transform, pearson_matrix, synthesize)


def windowed_matrix(seed=31):
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
    flows = FlowTable.from_records(parse_line(line, line_no=i + 1)
                                   for i, line in enumerate(synthesize(cfg)))
    return build_matrix(flows, WindowConfig(width_s=60, stride_s=30))


def main():
    matrix = windowed_matrix()
    print(f"{matrix.n_rows} rows x {matrix.n_features} features")

    print()
    print("=== strongest pairwise correlations ===")
    corr = pearson_matrix(matrix)
    names = corr.feature_names
    pairs = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            pairs.append((abs(corr.values[i][j]), names[i], names[j]))
    for r, a, b in sorted(pairs, reverse=True)[:5]:
        print(f"  |r|={r:.4f}  {a} ~ {b}")

    print()
    print("=== correlation filter at 0.95 ===")
    retained, dropped = correlation_filter(matrix, threshold=0.95)
    print(f"kept {len(retained)} of {matrix.n_features}")
    for name, why in dropped[:6]:
        print(f"  dropped {name:16s} ({why})")
    if len(dropped) > 6:
        print(f"  ... and {len(dropped) - 6} more")

    print()
    print("=== backward elimination down to 5 ===")
    filtered = matrix.select(retained)

    kept, trace = backward_elimination(
        filtered, min_features=5,
        tol=float("inf"), split_spec=SplitSpec(mode="stratified_random"))
    for step in trace:
        print(f"  removed {step['removed']:16s} "
              f"-> {step['n_features']:2d} left, F1={step['score']:.3f}")
    print(f"survivors: {', '.join(kept)}")

    print()
    print("=== PCA as an alternative: variance concentrates fast ===")
    pca = pca_fit(matrix, n_components=5)
    total = sum(pca.explained_variance)
    running = 0.0
    for i, v in enumerate(pca.explained_variance, start=1):
        running += v
        print(f"  pc_{i}: {100 * v / total:5.1f}% of captured variance"
              f"  (cumulative {100 * running / total:5.1f}%)")
    projected = pca_transform(matrix, pca)
    print(f"projected matrix: {projected.n_rows} x {projected.n_features} "
          f"({', '.join(projected.feature_names)})")


if __name__ == "__main__":
    main()
