//! Engine-backed repetitions (the `soak` and `join` workloads): one
//! `Driver` run over the real `ProtocolAgent`s, plain or traced.

use crate::common::{
    detached_and_errors, tree_hash, BuiltUnderlay, Fingerprint, Rep, Report, Workload,
};
use crate::layers::Layers;
use crate::prof::{self, SlotTotals};
use crate::wrap::{TracedFactory, TracedUnderlay};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdm_core::VdmFactory;
use vdm_netsim::{HostId, RoutedUnderlay, Underlay};
use vdm_overlay::driver::{Driver, DriverConfig, RunOutput};
use vdm_overlay::scenario::{Action, Scenario};
use vdm_topology::RouterStats;

/// Everything a repetition needs besides the underlay.
pub struct SimInputs {
    pub factory: VdmFactory,
    pub scenario: Scenario,
    pub limits: Vec<u32>,
    pub cfg: DriverConfig,
    pub seed: u64,
}

pub const SOURCE: HostId = HostId(0);

impl SimInputs {
    /// Join actions the scenario schedules (first joins and rejoins).
    pub fn joins_scheduled(&self) -> u64 {
        self.scenario
            .actions
            .iter()
            .filter(|(_, a)| matches!(a, Action::Join(_)))
            .count() as u64
    }

    /// Build the driver (untimed) and run it (timed).
    pub fn run_plain(&self, underlay: Arc<dyn Underlay + Send + Sync>) -> (Duration, RunOutput) {
        let driver = Driver::new(
            underlay,
            None,
            SOURCE,
            self.factory,
            &self.scenario,
            self.limits.clone(),
            self.cfg,
            self.seed,
        );
        let t = Instant::now();
        let out = driver.run();
        (t.elapsed(), out)
    }

    /// The same run with every layer boundary wrapped; also returns the
    /// per-boundary totals of the timed phase.
    pub fn run_traced(
        &self,
        underlay: Arc<dyn Underlay + Send + Sync>,
    ) -> (Duration, RunOutput, [SlotTotals; prof::SLOTS]) {
        let driver = Driver::new(
            Arc::new(TracedUnderlay(underlay)),
            None,
            SOURCE,
            TracedFactory(self.factory),
            &self.scenario,
            self.limits.clone(),
            self.cfg,
            self.seed,
        );
        prof::take_totals();
        let t = Instant::now();
        let out = driver.run();
        let wall = t.elapsed();
        (wall, out, prof::take_totals())
    }
}

/// Events, attachments, deliveries and the final tree of a run.
pub fn fingerprint(out: &RunOutput) -> Fingerprint {
    Fingerprint {
        events: out.events,
        attachments: out.stats.join_completions,
        deliveries: out.stats.received.iter().sum(),
        tree: tree_hash(&out.final_snapshot.parent),
    }
}

/// An engine-backed workload: its inputs, how to build its underlay
/// cold, how to give each repetition the same starting state, and its
/// output checks.
pub struct DriverWorkload<'a> {
    pub inputs: SimInputs,
    /// Cold build of the underlay (generation, attachment, routes).
    pub setup: &'a dyn Fn() -> BuiltUnderlay,
    /// The underlay one repetition runs on, built before its timer
    /// starts.
    pub fresh: &'a dyn Fn(&Arc<RoutedUnderlay>) -> Arc<RoutedUnderlay>,
    /// Output checks on the check pass, made by the benchmark itself.
    pub check: &'a dyn Fn(&RunOutput, &RoutedUnderlay, &mut Report),
}

impl DriverWorkload<'_> {
    /// A finished run as the measuring protocol sees it: the scheduled
    /// joins attempted, the members left detached failed. Keeps the
    /// router's statistics, not the router: a repetition's row cache
    /// is freed with it.
    fn rep(
        &self,
        wall: Duration,
        u: &RoutedUnderlay,
        out: RunOutput,
    ) -> Rep<(Option<RouterStats>, RunOutput)> {
        let detached = detached_and_errors(&out.final_snapshot, &self.inputs.limits).0;
        Rep {
            wall,
            fp: fingerprint(&out),
            attempted: self.inputs.joins_scheduled(),
            failed: detached as u64,
            out: (u.router().map(|r| r.stats()), out),
        }
    }
}

impl Workload for DriverWorkload<'_> {
    type Cold = Driver<VdmFactory>;
    /// The repetition's router statistics (on-demand underlays) and
    /// output.
    type Out = (Option<RouterStats>, RunOutput);
    const REMAINDER: &'static str = "engine.self_s";

    fn cold(&self) -> (BuiltUnderlay, Self::Cold) {
        let inp = &self.inputs;
        let b = (self.setup)();
        let driver = Driver::new(
            b.underlay.clone(),
            None,
            SOURCE,
            inp.factory,
            &inp.scenario,
            inp.limits.clone(),
            inp.cfg,
            inp.seed,
        );
        (b, driver)
    }

    fn check(&self, base: &Arc<RoutedUnderlay>, r: &mut Report) -> Rep<Self::Out> {
        let u = (self.fresh)(base);
        let (wall, out) = self.inputs.run_plain(u.clone());
        (self.check)(&out, &u, r);
        self.rep(wall, &u, out)
    }

    fn plain(&self, base: &Arc<RoutedUnderlay>) -> Rep<Self::Out> {
        let u = (self.fresh)(base);
        let (wall, out) = self.inputs.run_plain(u.clone());
        self.rep(wall, &u, out)
    }

    fn traced(&self, base: &Arc<RoutedUnderlay>) -> (Rep<Self::Out>, [SlotTotals; prof::SLOTS]) {
        let u = (self.fresh)(base);
        let (wall, out, totals) = self.inputs.run_traced(u.clone());
        (self.rep(wall, &u, out), totals)
    }

    fn layers(
        &self,
        l: &mut Layers,
        check: &Rep<Self::Out>,
        last: &Rep<Self::Out>,
        plain_wall: f64,
    ) {
        let (router, out) = &last.out;
        if let Some(stats) = *router {
            l.router(stats);
        }
        l.set("engine.events", out.events as f64);
        l.set("engine.events_per_s", out.events as f64 / plain_wall);
        l.set("engine.control_sent", out.counters.control_sent as f64);
        l.set("engine.data_sent", out.counters.data_sent as f64);
        l.set("engine.delivered", out.counters.delivered as f64);
        l.set(
            "agent.control_per_delivery",
            out.counters.control_sent as f64 / check.fp.deliveries.max(1) as f64,
        );
        let rec = &out.stats.recovery;
        l.set("walk.restarts", out.stats.walk_restarts as f64);
        l.set("repair.nacks_sent", rec.nacks_sent as f64);
        l.set("repair.chunks_repaired", rec.chunks_repaired as f64);
        l.set("failover.successes", rec.failover_successes as f64);
        l.set(
            "admission.throttled_shed",
            (rec.joins_throttled + rec.joins_shed) as f64,
        );
        l.set("tree.error_points", rec.invariant_violations.len() as f64);
    }
}
