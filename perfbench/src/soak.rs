//! `soak`: the paper's churn setting with every resilience mechanism on
//! (the A8 all-on agents) over the Chapter 3 transit-stub underlay and
//! its dense route table, streaming 1 chunk/s.

use crate::common::{build_ch3, detached_and_errors, measure, rtt_mismatches, Report};
use crate::sim::{DriverWorkload, SimInputs};
use std::sync::Arc;
use vdm_core::VdmFactory;
use vdm_experiments::setup::{ch3_setup, degree_limits_range, with_router_choice, RouterChoice};
use vdm_netsim::{HostId, RoutedUnderlay, SimTime};
use vdm_overlay::agent::{AdmissionConfig, AgentConfig, HeartbeatConfig, ResilienceConfig};
use vdm_overlay::driver::{DriverConfig, RunOutput};
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{Scenario, SoakConfig};
use vdm_overlay::walk::WalkConfig;

/// Overlay members (the source is one more host).
pub const MEMBERS: usize = 1000;

/// The churn schedule: Poisson departures, a correlated crash burst of
/// a quarter of the members every 100 s, staggered rejoins, and a quiet
/// tail that lets every member re-attach before the end.
pub fn shape() -> SoakConfig {
    SoakConfig {
        members: MEMBERS,
        warmup_s: 120.0,
        duration_s: 1000.0,
        // The A8 default rate (0.03/s at 40 members) per member.
        churn_rate_per_s: 0.03 * MEMBERS as f64 / 40.0,
        burst_every_s: 100.0,
        burst_frac: 0.25,
        measure_every_s: 50.0,
        quiet_tail_s: 100.0,
    }
}

/// The A8 all-on agent: the hardened control plane plus failover,
/// admission, heartbeats and NACK repair (the knobs of
/// `vdm_experiments::figures::soak` with every mechanism on).
pub fn all_on() -> VdmFactory {
    let mut f = VdmFactory::delay_based();
    f.agent = AgentConfig {
        walk: WalkConfig::hardened(),
        retry_backoff: 2.0,
        data_timeout: Some(SimTime::from_secs(15)),
        heartbeat: Some(HeartbeatConfig {
            period: SimTime::from_secs(10),
            timeout: SimTime::from_secs(30),
        }),
        gap_threshold: Some(SimTime::from_secs(5)),
        resilience: Some(ResilienceConfig::default()),
        admission: Some(AdmissionConfig {
            rate_per_s: 0.5,
            burst: 1.0,
            ..AdmissionConfig::default()
        }),
        repair: Some(RepairConfig::default()),
        ..f.agent
    };
    f
}

fn check(seed: u64) -> impl Fn(&RunOutput, &RoutedUnderlay, &mut Report) {
    move |out, u, r| {
        let limits = degree_limits_range(MEMBERS + 1, 2, 5, seed);
        let (detached, errors) = detached_and_errors(&out.final_snapshot, &limits);
        r.check(
            "every in-session member attached after the quiet tail, tree valid",
            detached == 0 && errors == 0,
            format!(
                "{} members, {detached} detached, {errors} tree errors",
                out.final_snapshot.members.len()
            ),
        );
        let chunks = out.stats.source_chunks;
        let over = out.stats.received.iter().filter(|&&n| n > chunks).count();
        r.check(
            "no host received more chunks than the source emitted",
            over == 0 && chunks > 0,
            format!("{chunks} chunks, {over} hosts over"),
        );
        let lib = with_router_choice(RouterChoice::OnDemand, || ch3_setup(MEMBERS, 0.0, seed));
        let bad = rtt_mismatches(u, &*lib.underlay, 29);
        r.check(
            "underlay equals ch3_setup's",
            bad == 0,
            format!("{bad} RTTs differ"),
        );
        let rec = &out.stats.recovery;
        let stretch = out
            .stats
            .measurements
            .last()
            .map_or(f64::NAN, |m| m.stretch.mean);
        println!(
            "outcome: loss {:.4}, median reconnect {:.3} s, stretch {:.3}, \
             tree.error_points {} of {} measurements ({} errors), at t = {:?} s",
            out.stats.overall_loss(),
            rec.reconnect_median(),
            stretch,
            rec.invariant_violations.len(),
            out.stats.measurements.len(),
            rec.total_violations(),
            rec.invariant_violations
                .iter()
                .map(|&(t, _)| t)
                .collect::<Vec<_>>(),
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let candidates: Vec<HostId> = (1..=MEMBERS as u32).map(HostId).collect();
    let inputs = SimInputs {
        factory: all_on(),
        scenario: Scenario::soak(&shape(), &candidates, seed),
        limits: degree_limits_range(MEMBERS + 1, 2, 5, seed),
        cfg: DriverConfig {
            data_interval: Some(SimTime::from_secs(1)),
            ..DriverConfig::default()
        },
        seed,
    };
    measure(
        &DriverWorkload {
            inputs,
            setup: &|| build_ch3(MEMBERS, seed),
            fresh: &|u: &Arc<RoutedUnderlay>| Arc::clone(u),
            check: &check(seed),
        },
        seconds,
        trace,
    )
}
