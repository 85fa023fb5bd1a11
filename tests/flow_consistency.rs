//! Cross-crate consistency of the flow-measurement plane: sampled-flow
//! estimates versus ground-truth counters, and conservation across the
//! router model.

use aggressive_scanners::pipeline::{self, RunOptions};
use aggressive_scanners::simnet::scenario::ScenarioConfig;

#[test]
fn sampled_estimates_track_ground_truth() {
    let run = pipeline::run(
        ScenarioConfig::tiny(2, 21),
        RunOptions { sampling_rate: 10, ..RunOptions::with_flows() },
    );
    let ds = run.merit_flows.as_ref().unwrap();
    let truth: u64 = ds.router_days.values().map(|c| c.packets).sum();
    let sampled: u64 = ds.records.iter().map(|r| r.packets).sum();
    let estimate = ds.estimate(sampled);
    assert!(truth > 1000, "needs traffic: {truth}");
    let err = (estimate as f64 - truth as f64).abs() / truth as f64;
    // Systematic 1:10 sampling over tens of thousands of packets: the
    // inverse estimator must land within a few percent.
    assert!(err < 0.05, "estimate {estimate} vs truth {truth} (err {err:.3})");
}

#[test]
fn unsampled_dataset_is_exact() {
    let run = pipeline::run(
        ScenarioConfig::tiny(1, 22),
        RunOptions { sampling_rate: 1, ..RunOptions::with_flows() },
    );
    let ds = run.merit_flows.as_ref().unwrap();
    let truth: u64 = ds.router_days.values().map(|c| c.packets).sum();
    let sampled: u64 = ds.records.iter().map(|r| r.packets).sum();
    assert_eq!(truth, sampled, "1:1 sampling conserves every packet");
}

#[test]
fn routers_split_the_border_exhaustively() {
    // Every border-crossing packet lands at exactly one router: the sum
    // of router-day truth counters must equal the count of border
    // dispositions.
    use aggressive_scanners::flow::router::Disposition;
    use aggressive_scanners::simnet::scenario::Scenario;
    let cfg = ScenarioConfig::tiny(1, 24);
    let mut sc = Scenario::build(cfg);
    let world = sc.world.clone();
    let mut isp = aggressive_scanners::flow::router::IspModel::new(
        aggressive_scanners::flow::router::IspConfig {
            internal: world.merit_internal(),
            policy: Box::new(world.merit_policy()),
            routers: vec![1, 2, 3],
            sampling_rate: 100,
        },
    );
    let mut border = 0u64;
    while let Some(pkt) = sc.mux.next_packet() {
        if let Disposition::Border(..) = isp.observe(&pkt) {
            border += 1;
        }
    }
    let ds = isp.finish();
    let counted: u64 = ds.router_days.values().map(|c| c.packets).sum();
    assert_eq!(border, counted);
    assert!(border > 1000);
}
