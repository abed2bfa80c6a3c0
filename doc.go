// Package crossmatch is a from-scratch Go implementation of
// "Real-Time Cross Online Matching in Spatial Crowdsourcing"
// (Cheng, Li, Zhou, Yuan, Wang, Chen — ICDE 2020).
//
// Cross Online Matching (COM) lets a spatial crowdsourcing platform
// "borrow" unoccupied crowd workers from cooperating platforms to serve
// requests its own workers cannot reach, paying the borrowed worker an
// outer payment v' in (0, v] and booking the remainder v - v'. The
// package provides:
//
//   - the COM domain model: requests, inner/outer workers, arrival
//     streams, matchings and revenue accounting (Definitions 2.1-2.6);
//   - the paper's two algorithms: DemCOM (deterministic, Algorithm 1,
//     with the Monte-Carlo minimum outer payment of Algorithm 2) and
//     RamCOM (randomized, Algorithm 3, with maximum-expected-revenue
//     pricing per Definition 4.1);
//   - the baselines: TOTA (single-platform online greedy [9]), Greedy-RT
//     (randomized threshold [9]) and OFF (the offline optimum via exact
//     maximum-weight bipartite matching);
//   - a multi-platform simulation engine with a cooperation hub that
//     shares unoccupied workers across platforms;
//   - workload generators reproducing the paper's city datasets and
//     Table IV synthetic sweeps;
//   - experiment runners regenerating every table and figure of the
//     paper's evaluation, fanned across a deterministic worker pool
//     (see EXPERIMENTS.md).
//
// # Quick start
//
//	stream, _ := crossmatch.GenerateSynthetic(2500, 500, 1.0, "real", 42)
//	result, _ := crossmatch.SimulateContext(context.Background(), stream,
//		crossmatch.DemCOM, crossmatch.WithSeed(1))
//	fmt.Println(result.TotalRevenue())
//
// SimulateContext stops between arrival events when its context is
// cancelled, returning the partial result alongside an error wrapping
// ctx.Err(). Options attach a seed (WithSeed), disable cross-platform
// cooperation (WithCoopDisabled), model worker return delays
// (WithServiceTicks) and collect counters and latency histograms
// (WithMetrics).
//
// The Example functions in example_api_test.go are runnable programs
// with checked output; cmd/combench is the full benchmark harness.
package crossmatch
