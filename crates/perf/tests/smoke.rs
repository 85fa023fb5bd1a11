//! End-to-end smoke of the benchmark itself: every workload through the
//! real driver and real child processes, at the smoke size.

use ah_perf::adapter::Size;
use ah_perf::catalog::PER_LAYER;
use ah_perf::driver::run_all;
use std::path::Path;

#[test]
fn every_workload_passes_its_cross_checks_at_smoke_size() {
    let exe = Path::new(env!("CARGO_BIN_EXE_ah-perf"));
    let results = run_all(exe, 42, Size::Smoke, true, None).unwrap();
    assert_eq!(results.len(), 8);
    for r in &results {
        // Set-up reference, a repeat, staged run, accounted run — and
        // every fingerprint / report cross-check among them.
        assert!(r.attempted >= 4, "{}: {} operations", r.workload, r.attempted);
        assert_eq!(r.failed, 0, "{}: {:?}", r.workload, r.failures);
        let layers = r.per_layer.as_ref().expect("traced");
        assert!(layers.f64("core.detector.ingest.events_in").unwrap() > 0.0, "{}", r.workload);
        assert!(layers.f64("pipeline.ledger_sum_s").unwrap() > 0.0, "{}", r.workload);
        for (name, _, _) in PER_LAYER {
            assert!(
                layers.f64_or_zero(name) >= 0.0 || name.starts_with("pipeline.residual"),
                "{name}"
            );
        }
        for metric in [
            "packets_per_s",
            "cpu_ns_per_packet",
            "rss_bytes_per_event",
            "setup_s",
            "run_s",
            "cpu_s",
            "peak_rss_bytes",
        ] {
            assert!(r.summary(metric).unwrap().median > 0.0, "{} {metric}", r.workload);
        }
        let on_durable = r.summary("wal_bytes_per_packet").is_some();
        assert_eq!(on_durable, r.workload == "durable");
    }
    let value = |w: &str, k: &str| {
        results.iter().find(|r| r.workload == w).unwrap().per_layer.as_ref().unwrap().f64_or_zero(k)
    };
    // Stages run only where the workload's options enable them.
    assert_eq!(value("darknet", "flow.merit.busy_s"), 0.0);
    assert!(value("flows", "flow.merit.busy_s") > 0.0);
    assert!(value("full-faulted", "simnet.faults.discarded") > 0.0);
    assert!(value("full-parallel", "simnet.ring.packets") > 0.0);
    assert_eq!(value("full-serial", "simnet.ring.packets"), 0.0);
    assert!(value("durable", "wal.commit.commits") > 0.0);
    assert!(value("replay", "wal.recover.frames") > 0.0);
    assert_eq!(value("replay", "simnet.mux.busy_s"), 0.0);
    assert!(value("full-observed", "obs.overhead_ratio") > 0.0);
    // Nothing is left behind beside the executable.
    assert!(!exe.parent().unwrap().join("ah-perf-tmp").exists());
}
