//! Timing wrappers around each layer's public interface, used by the
//! traced run only. Each forwards every trait method — the defaulted
//! ones too — so the traced run makes exactly the decisions the plain
//! run makes.

use crate::prof;
use rand::rngs::StdRng;
use rand::RngCore;
use std::sync::Arc;
use vdm_core::{VdmFactory, VdmPolicy};
use vdm_netsim::{HostId, SimTime, Underlay};
use vdm_overlay::agent::{AgentFactory, Ctx, OverlayAgent, ProtocolAgent};
use vdm_overlay::discovery::DiscoveryConfig;
use vdm_overlay::msg::Msg;
use vdm_overlay::peer::PeerState;
use vdm_overlay::walk::{ProbeResult, WalkPolicy, WalkPurpose, WalkStep};
use vdm_overlay::VDist;
use vdm_topology::EdgeId;

/// Slot of a message kind (index into [`prof::AGENT_KINDS`]).
pub fn msg_slot(m: &Msg) -> usize {
    match m {
        Msg::InfoReq { .. } => 0,
        Msg::InfoResp { .. } => 1,
        Msg::Ping { .. } => 2,
        Msg::Pong { .. } => 3,
        Msg::ConnReq { .. } => 4,
        Msg::ConnResp { .. } => 5,
        Msg::ParentChange { .. } => 6,
        Msg::GrandparentChange { .. } => 7,
        Msg::RootPath { .. } => 8,
        Msg::Heartbeat => 9,
        Msg::Leave => 10,
        Msg::ChildLeave => 11,
        Msg::AncestorList { .. } => 12,
        Msg::Nack { .. } => 13,
        Msg::Data { .. } => 14,
        Msg::CrossNack { .. } => 15,
        Msg::CrossData { .. } => 16,
        Msg::PeerReq { .. } => 17,
        Msg::PeerList { .. } => 18,
    }
}

/// Underlay whose distance, loss and path queries are timed.
pub struct TracedUnderlay(pub Arc<dyn Underlay + Send + Sync>);

impl Underlay for TracedUnderlay {
    fn num_hosts(&self) -> usize {
        self.0.num_hosts()
    }
    fn rtt_ms(&self, a: HostId, b: HostId) -> f64 {
        prof::time(prof::UNDERLAY, || self.0.rtt_ms(a, b))
    }
    fn one_way_ms(&self, a: HostId, b: HostId) -> f64 {
        prof::time(prof::UNDERLAY, || self.0.one_way_ms(a, b))
    }
    fn sample_one_way_ms(&self, a: HostId, b: HostId, rng: &mut dyn RngCore) -> f64 {
        prof::time(prof::UNDERLAY, || self.0.sample_one_way_ms(a, b, rng))
    }
    fn path_loss(&self, a: HostId, b: HostId) -> f64 {
        prof::time(prof::UNDERLAY, || self.0.path_loss(a, b))
    }
    fn path_edges(&self, a: HostId, b: HostId) -> Option<Vec<EdgeId>> {
        prof::time(prof::UNDERLAY, || self.0.path_edges(a, b))
    }
    fn num_links(&self) -> usize {
        self.0.num_links()
    }
    fn link_specs(&self) -> Vec<vdm_netsim::dataplane::LinkSpec> {
        self.0.link_specs()
    }
}

/// Walk policy whose decisions and distance evaluations are timed.
pub struct TracedPolicy<P>(pub P);

impl<P: WalkPolicy> WalkPolicy for TracedPolicy<P> {
    fn vdist(&self, rtt_ms: f64, loss_est: f64) -> VDist {
        prof::time(prof::WALK_VDIST, || self.0.vdist(rtt_ms, loss_est))
    }
    fn needs_loss(&self) -> bool {
        self.0.needs_loss()
    }
    fn decide(&self, probe: &ProbeResult, purpose: WalkPurpose) -> WalkStep {
        prof::time(prof::WALK_DECIDE, || self.0.decide(probe, purpose))
    }
    fn refine_requires_improvement(&self) -> bool {
        self.0.refine_requires_improvement()
    }
    fn refine_start(&self, state: &PeerState, source: HostId, rng: &mut StdRng) -> HostId {
        self.0.refine_start(state, source, rng)
    }
    fn classify_for_trace(&self, probe: &ProbeResult) -> Vec<(HostId, vdm_trace::CaseClass)> {
        self.0.classify_for_trace(probe)
    }
    fn restart_anchor(
        &self,
        visited: &[HostId],
        coord_dist: Option<&[VDist]>,
        fallback: HostId,
    ) -> HostId {
        self.0.restart_anchor(visited, coord_dist, fallback)
    }
}

/// Agent whose entry points are timed per message kind.
pub struct TracedAgent<A>(pub A);

impl<A: OverlayAgent> OverlayAgent for TracedAgent<A> {
    fn on_join_cmd(&mut self, ctx: &mut Ctx<'_>) {
        prof::time(prof::JOIN_CMD, || self.0.on_join_cmd(ctx))
    }
    fn on_leave_cmd(&mut self, ctx: &mut Ctx<'_>) {
        prof::time(prof::LEAVE_CMD, || self.0.on_leave_cmd(ctx))
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, from: HostId, msg: Msg) {
        prof::time(msg_slot(&msg), || self.0.on_msg(ctx, from, msg))
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        prof::time(prof::TIMER, || self.0.on_timer(ctx, token))
    }
    fn configure_discovery(&mut self, cfg: &DiscoveryConfig, now: SimTime) {
        self.0.configure_discovery(cfg, now)
    }
    fn emit_data(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        prof::time(prof::EMIT_DATA, || self.0.emit_data(ctx, seq))
    }
    fn parent(&self) -> Option<HostId> {
        self.0.parent()
    }
    fn children(&self) -> Vec<HostId> {
        self.0.children()
    }
    fn connected(&self) -> bool {
        self.0.connected()
    }
    fn degree_limit(&self) -> u32 {
        self.0.degree_limit()
    }
}

/// The traced counterpart of a [`VdmFactory`]: the same agents, with
/// the policy and the agent wrapped.
pub struct TracedFactory(pub VdmFactory);

impl AgentFactory for TracedFactory {
    type Agent = TracedAgent<ProtocolAgent<TracedPolicy<VdmPolicy>>>;

    fn make(&self, host: HostId, source: HostId, degree_limit: u32, inc: u32) -> Self::Agent {
        let f = &self.0;
        let mut policy = VdmPolicy::new(f.metric, f.slack);
        if let Some((seed, amp)) = f.perturb {
            policy = policy.with_perturbation(seed, amp);
        }
        TracedAgent(ProtocolAgent::new(
            host,
            source,
            degree_limit,
            inc,
            f.agent,
            TracedPolicy(policy),
        ))
    }
}
