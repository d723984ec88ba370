//! `wire`: the daemon's per-message path without sockets. The
//! benchmark's own event loop drives one `ProtocolCore` per member and
//! moves every message as a `vdm_proto` frame; delays come from the
//! transit-stub underlay's dense route table. The stream runs at 10
//! chunks/s, as `vdm-node` emits, and joins are staggered.

use crate::common::{
    build_ch3, detached_and_errors, measure, median, tree_hash, BuiltUnderlay, Fingerprint, Rep,
    Report, Workload,
};
use crate::layers::Layers;
use crate::prof::{self, SlotTotals};
use crate::sim::SOURCE;
use crate::wrap::{TracedFactory, TracedUnderlay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;
use vdm_core::VdmFactory;
use vdm_experiments::setup::degree_limits_range;
use vdm_netsim::{HostId, RoutedUnderlay, SendClass, SimTime, Underlay};
use vdm_overlay::agent::{AgentFactory, OverlayAgent};
use vdm_overlay::driver::{Driver, DriverConfig};
use vdm_overlay::scenario::{Action, Scenario};
use vdm_overlay::tree::TreeSnapshot;
use vdm_overlay::{Input, Output, ProtocolCore};

/// Overlay members (the source is one more host).
pub const MEMBERS: usize = 1000;
/// Stream chunk interval (10 chunks/s).
const CHUNK: SimTime = SimTime(100_000);
/// First join, s; then one join every `STAGGER_S` plus up to half of
/// that again at random.
const FIRST_JOIN_S: f64 = 1.0;
const STAGGER_S: f64 = 0.05;
/// Streaming after the last join, s.
const SETTLE_S: f64 = 200.0;

/// The session every repetition replays.
struct Plan {
    joins: Vec<(SimTime, HostId)>,
    end: SimTime,
    limits: Vec<u32>,
    seed: u64,
}

impl Plan {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7769_7265);
        let mut order: Vec<HostId> = (1..=MEMBERS as u32).map(HostId).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let joins: Vec<(SimTime, HostId)> = order
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                let t = FIRST_JOIN_S + STAGGER_S * (i as f64 + rng.gen_range(0.0..0.5));
                (SimTime::from_ms(t * 1000.0), h)
            })
            .collect();
        let last = joins.iter().map(|&(t, _)| t).max().expect("members join");
        Self {
            end: last + SimTime::from_ms(SETTLE_S * 1000.0),
            joins,
            limits: degree_limits_range(MEMBERS + 1, 2, 5, seed),
            seed,
        }
    }

    fn scenario(&self) -> Scenario {
        let actions = self
            .joins
            .iter()
            .map(|&(t, h)| (t, Action::Join(h)))
            .collect();
        Scenario::from_actions(actions, self.end)
    }

    /// One core per host, every agent made as the driver makes it (the
    /// first session entry of each host).
    fn cores<F: AgentFactory>(&self, factory: &F) -> Vec<ProtocolCore<F::Agent>> {
        (0..=MEMBERS as u32)
            .map(|h| {
                let h = HostId(h);
                let agent = factory.make(h, SOURCE, self.limits[h.idx()], 0);
                ProtocolCore::new(h, agent, MEMBERS + 1, self.seed)
            })
            .collect()
    }
}

enum Ev {
    Join(HostId),
    Tick,
    Deliver { to: HostId, frame: Vec<u8> },
    Timer { host: HostId, token: u64 },
}

/// A scheduled event, ordered by `(at, seq)` like the engine's queue.
struct Sched {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Sched {
    fn eq(&self, o: &Self) -> bool {
        (self.at, self.seq) == (o.at, o.seq)
    }
}
impl Eq for Sched {}
impl PartialOrd for Sched {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Sched {
    fn cmp(&self, o: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(o.at, o.seq))
    }
}

/// What one pass of the loop produced.
struct WireOut {
    fp: Fingerprint,
    received: Vec<u64>,
    snapshot: TreeSnapshot,
    frames: u64,
    frame_bytes: u64,
    decoded: u64,
    decode_errors: u64,
    reencode_mismatches: u64,
    control_sent: u64,
}

/// The event loop: owns the clock, the queue and the "network"; touches
/// the protocol only through `ProtocolCore::handle` and the codec. With
/// `TRACE`, the core and the codec calls are timed; with `verify`,
/// every decoded frame is re-encoded and compared (check pass only).
fn run_loop<A: OverlayAgent, const TRACE: bool>(
    plan: &Plan,
    cores: &mut [ProtocolCore<A>],
    underlay: &dyn Underlay,
    verify: bool,
) -> WireOut {
    let mut heap: BinaryHeap<Reverse<Sched>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    let mut push = |heap: &mut BinaryHeap<Reverse<Sched>>, now: SimTime, at: SimTime, ev: Ev| {
        heap.push(Reverse(Sched {
            at: at.max(now),
            seq,
            ev,
        }));
        seq += 1;
    };
    for &(t, h) in &plan.joins {
        push(&mut heap, now, t, Ev::Join(h));
    }
    push(&mut heap, now, SimTime::ZERO, Ev::Tick);

    let mut joined = vec![false; cores.len()];
    joined[SOURCE.idx()] = true;
    let mut out = WireOut {
        fp: Fingerprint {
            events: 0,
            attachments: 0,
            deliveries: 0,
            tree: 0,
        },
        received: Vec::new(),
        snapshot: TreeSnapshot {
            source: SOURCE,
            members: Vec::new(),
            parent: Vec::new(),
        },
        frames: 0,
        frame_bytes: 0,
        decoded: 0,
        decode_errors: 0,
        reencode_mismatches: 0,
        control_sent: 0,
    };
    let mut chunk = 0u64;
    let mut outputs: Vec<Output> = Vec::new();
    while heap.peek().is_some_and(|Reverse(s)| s.at <= plan.end) {
        let Reverse(s) = heap.pop().expect("peeked");
        now = s.at;
        out.fp.events += 1;
        let (host, input) = match s.ev {
            Ev::Join(h) => {
                if joined[h.idx()] {
                    continue;
                }
                joined[h.idx()] = true;
                (h, Input::Join)
            }
            Ev::Tick => {
                chunk += 1;
                (SOURCE, Input::EmitData { seq: chunk })
            }
            Ev::Deliver { to, frame } => {
                // Like the driver: nothing receives before it joined.
                if !joined[to.idx()] {
                    continue;
                }
                out.decoded += 1;
                let decoded = if TRACE {
                    prof::time(prof::PROTO_DECODE, || vdm_proto::decode_frame(&frame))
                } else {
                    vdm_proto::decode_frame(&frame)
                };
                let Ok((from, msg)) = decoded else {
                    out.decode_errors += 1;
                    continue;
                };
                if verify && vdm_proto::encode_frame(from, &msg).ok().as_deref() != Some(&frame[..])
                {
                    out.reencode_mismatches += 1;
                }
                (to, Input::Packet { from, msg })
            }
            Ev::Timer { host, token } => {
                if !joined[host.idx()] {
                    continue;
                }
                (host, Input::Timer { token })
            }
        };
        let is_tick = matches!(input, Input::EmitData { .. });
        let core = &mut cores[host.idx()];
        if TRACE {
            prof::time(prof::CORE_HANDLE, || {
                outputs.extend(core.handle(now, input))
            });
        } else {
            outputs.extend(core.handle(now, input));
        }
        for o in outputs.drain(..) {
            match o {
                Output::Send { to, msg, class } => {
                    let frame = if TRACE {
                        prof::time(prof::PROTO_ENCODE, || vdm_proto::encode_frame(host, &msg))
                    } else {
                        vdm_proto::encode_frame(host, &msg)
                    }
                    .expect("protocol messages fit a frame");
                    out.frames += 1;
                    out.frame_bytes += frame.len() as u64;
                    if class == SendClass::Control {
                        out.control_sent += 1;
                    }
                    let delay = SimTime::from_ms(underlay.one_way_ms(host, to));
                    push(&mut heap, now, now + delay, Ev::Deliver { to, frame });
                }
                Output::Timer { delay, token } => {
                    push(&mut heap, now, now + delay, Ev::Timer { host, token });
                }
            }
        }
        // The driver schedules the next chunk after the emission's sends.
        if is_tick && now + CHUNK <= plan.end {
            push(&mut heap, now, now + CHUNK, Ev::Tick);
        }
    }

    let mut parent = vec![None; cores.len()];
    let mut members = Vec::new();
    for (i, c) in cores.iter().enumerate() {
        let h = HostId(i as u32);
        out.received.push(c.stats().received[i]);
        out.fp.attachments += c.stats().join_completions;
        if h != SOURCE && joined[i] {
            members.push(h);
            parent[i] = c.agent().parent();
        }
    }
    out.fp.deliveries = out.received.iter().sum();
    out.fp.tree = tree_hash(&parent);
    out.snapshot = TreeSnapshot {
        source: SOURCE,
        members,
        parent,
    };
    out
}

/// The `wire` workload: one session plan replayed by the event loop.
struct Wire {
    plan: Plan,
    factory: VdmFactory,
}

impl Wire {
    /// One pass of the loop over fresh cores made by `factory`, timed
    /// from after the cores are built.
    fn pass<F: AgentFactory, const TRACE: bool>(
        &self,
        factory: &F,
        underlay: &dyn Underlay,
        verify: bool,
    ) -> Rep<WireOut> {
        let mut cores = self.plan.cores(factory);
        let t = Instant::now();
        let w = run_loop::<_, TRACE>(&self.plan, &mut cores, underlay, verify);
        let wall = t.elapsed();
        // Joins scheduled vs members left detached; frames decoded vs
        // decode errors.
        let detached = detached_and_errors(&w.snapshot, &self.plan.limits).0 as u64;
        Rep {
            wall,
            fp: w.fp.clone(),
            attempted: self.plan.joins.len() as u64 + w.decoded,
            failed: detached + w.decode_errors,
            out: w,
        }
    }
}

impl Workload for Wire {
    type Cold = Vec<ProtocolCore<<VdmFactory as AgentFactory>::Agent>>;
    type Out = WireOut;
    const REMAINDER: &'static str = "harness.loop_s";

    /// The underlay and every member's core.
    fn cold(&self) -> (BuiltUnderlay, Self::Cold) {
        (
            build_ch3(MEMBERS, self.plan.seed),
            self.plan.cores(&self.factory),
        )
    }

    /// The engine-backed driver on the same scenario, seed and underlay
    /// is the reference; the loop must reproduce it, and every frame
    /// must re-encode to its own bytes.
    fn check(&self, base: &Arc<RoutedUnderlay>, r: &mut Report) -> Rep<WireOut> {
        let plan = &self.plan;
        let reference = Driver::new(
            base.clone(),
            None,
            SOURCE,
            self.factory,
            &plan.scenario(),
            plan.limits.clone(),
            DriverConfig {
                data_interval: Some(CHUNK),
                ..DriverConfig::default()
            },
            plan.seed,
        )
        .run();
        let rep = self.pass::<_, false>(&self.factory, &**base, true);
        let w = &rep.out;
        let d_fp = crate::sim::fingerprint(&reference);
        r.check(
            "final tree and per-host deliveries equal the engine-backed driver's",
            w.fp == d_fp && w.received == reference.stats.received,
            format!("driver {d_fp}"),
        );
        r.check(
            "every frame decodes and re-encodes to the same bytes",
            w.decode_errors == 0 && w.reencode_mismatches == 0,
            format!(
                "{} frames decoded, {} decode errors, {} re-encode mismatches",
                w.decoded, w.decode_errors, w.reencode_mismatches
            ),
        );
        let (detached, errors) = detached_and_errors(&w.snapshot, &plan.limits);
        r.check(
            "every member attached, tree valid",
            detached == 0 && errors == 0,
            format!("{detached} detached, {errors} tree errors"),
        );
        let tm = vdm_overlay::TreeMetrics::compute(&w.snapshot, &**base, None);
        println!(
            "outcome: loss {:.4}, median startup {:.3} s, stretch {:.3}, {} chunks",
            reference.stats.overall_loss(),
            median(&reference.stats.startup_s),
            tm.stretch.mean,
            reference.stats.source_chunks,
        );
        rep
    }

    fn plain(&self, base: &Arc<RoutedUnderlay>) -> Rep<WireOut> {
        self.pass::<_, false>(&self.factory, &**base, false)
    }

    fn traced(&self, base: &Arc<RoutedUnderlay>) -> (Rep<WireOut>, [SlotTotals; prof::SLOTS]) {
        let underlay = TracedUnderlay(base.clone());
        prof::take_totals();
        let rep = self.pass::<_, true>(&TracedFactory(self.factory), &underlay, false);
        (rep, prof::take_totals())
    }

    fn layers(&self, l: &mut Layers, check: &Rep<WireOut>, _last: &Rep<WireOut>, _plain_wall: f64) {
        let w = &check.out;
        let deliveries = check.fp.deliveries.max(1) as f64;
        l.set(
            "agent.control_per_delivery",
            w.control_sent as f64 / deliveries,
        );
        l.set("proto.frames", w.frames as f64);
        l.set(
            "proto.bytes_per_frame",
            w.frame_bytes as f64 / w.frames as f64,
        );
        l.set("proto.frames_per_delivery", w.frames as f64 / deliveries);
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let wire = Wire {
        plan: Plan::new(seed),
        factory: VdmFactory::delay_based(),
    };
    measure(&wire, seconds, trace)
}
