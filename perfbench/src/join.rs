//! `join`: a crowd of members joining a power-law underlay routed on
//! demand (the A9 testbed of `setup::scale_setup`), under a slow stream.
//! Every repetition starts with an empty row cache.

use crate::common::{
    build_powerlaw_graph, detached_and_errors, measure, on_demand, rtt_mismatches, BuiltUnderlay,
    Report,
};
use crate::sim::{DriverWorkload, SimInputs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;
use vdm_core::VdmFactory;
use vdm_experiments::setup::{degree_limits_range, scale_setup, with_router_choice, RouterChoice};
use vdm_netsim::{HostId, RoutedUnderlay, SimTime, Underlay};
use vdm_overlay::driver::{DriverConfig, RunOutput};
use vdm_overlay::scenario::{Action, Scenario};
use vdm_topology::{Graph, NodeId};

/// Overlay members (the source is one more host).
pub const MEMBERS: usize = 2000;
/// Joins arrive at uniform random times over this window, s.
const CROWD_S: f64 = 120.0;
/// Quiet time after the last join, s.
const SETTLE_S: f64 = 60.0;
/// Stream chunk interval, s.
const CHUNK_S: u64 = 20;
/// Host pairs whose RTT the benchmark recomputes.
const SPOT_CHECKS: usize = 64;

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a6f_696e);
    let actions = (1..=MEMBERS as u32)
        .map(|h| {
            let t = rng.gen_range(0.0..CROWD_S);
            (SimTime::from_ms(t * 1000.0), Action::Join(HostId(h)))
        })
        .collect();
    Scenario::from_actions(actions, SimTime::from_secs((CROWD_S + SETTLE_S) as u64))
}

/// Delay-shortest distances from `s`, ms: the benchmark's own Dijkstra.
fn dijkstra(g: &Graph, s: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[s.idx()] = 0.0;
    heap.push(Reverse((0u64, s.0)));
    while let Some(Reverse((d_bits, v))) = heap.pop() {
        let d = f64::from_bits(d_bits);
        if d > dist[v as usize] {
            continue;
        }
        for a in g.neighbors(NodeId(v)) {
            let nd = d + g.edge(a.edge).attrs.delay_ms;
            if nd < dist[a.to.idx()] {
                dist[a.to.idx()] = nd;
                // Non-negative f64 bit patterns order like the values.
                heap.push(Reverse((nd.to_bits(), a.to.0)));
            }
        }
    }
    dist
}

fn check(seed: u64) -> impl Fn(&RunOutput, &RoutedUnderlay, &mut Report) {
    move |out, u, r| {
        let limits = degree_limits_range(MEMBERS + 1, 2, 5, seed);
        let (detached, errors) = detached_and_errors(&out.final_snapshot, &limits);
        r.check(
            "every joiner attached, tree valid",
            detached == 0 && errors == 0 && out.final_snapshot.members.len() == MEMBERS,
            format!(
                "{} members, {detached} detached, {errors} tree errors",
                out.final_snapshot.members.len()
            ),
        );
        // Spot-check the router against a Dijkstra over the same graph.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7370_6f74);
        let mut bad = 0u64;
        for _ in 0..SPOT_CHECKS {
            let a = HostId(rng.gen_range(0..=MEMBERS as u32));
            let b = HostId(rng.gen_range(0..=MEMBERS as u32));
            let want = 2.0 * dijkstra(u.graph(), u.node_of(a))[u.node_of(b).idx()];
            if u.rtt_ms(a, b).to_bits() != want.to_bits() {
                bad += 1;
            }
        }
        r.check(
            "router answers equal the benchmark's Dijkstra",
            bad == 0,
            format!("{SPOT_CHECKS} pairs, {bad} mismatches"),
        );
        r.attempted += SPOT_CHECKS as u64;
        r.failed += bad;
        let lib = with_router_choice(RouterChoice::OnDemand, || scale_setup(MEMBERS, seed));
        let diff = rtt_mismatches(u, &*lib.underlay, 97);
        r.check(
            "underlay equals scale_setup's",
            diff == 0,
            format!("{diff} RTTs differ"),
        );
        let last = vdm_overlay::TreeMetrics::compute(&out.final_snapshot, u, None);
        println!(
            "outcome: loss {:.4}, median startup {:.3} s, stretch {:.3}, router {:?}",
            out.stats.overall_loss(),
            crate::common::median(&out.stats.startup_s),
            last.stretch.mean,
            u.router().map(|r| r.stats()),
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let inputs = SimInputs {
        factory: VdmFactory::delay_based(),
        scenario: scenario(seed),
        limits: degree_limits_range(MEMBERS + 1, 2, 5, seed),
        cfg: DriverConfig {
            data_interval: Some(SimTime::from_secs(CHUNK_S)),
            ..DriverConfig::default()
        },
        seed,
    };
    let setup = || {
        let t = Instant::now();
        let (g, hosts) = build_powerlaw_graph(MEMBERS, seed);
        let generate = t.elapsed();
        let t = Instant::now();
        let underlay = on_demand(&g, &hosts);
        BuiltUnderlay {
            underlay,
            generate,
            routes: t.elapsed(),
        }
    };
    let fresh = |u: &Arc<RoutedUnderlay>| {
        let router = u.router().expect("the join underlay is routed on demand");
        on_demand(router.graph(), u.host_nodes())
    };
    measure(
        &DriverWorkload {
            inputs,
            setup: &setup,
            fresh: &fresh,
            check: &check(seed),
        },
        seconds,
        trace,
    )
}
