//! Pieces the three workloads share: underlay set-ups timed by phase,
//! the measuring protocol, statistics, fingerprints and the report.

use crate::layers::Layers;
use crate::prof::{self, SlotTotals};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdm_netsim::{HostId, RoutedUnderlay, Underlay};
use vdm_overlay::tree::TreeSnapshot;
use vdm_topology::powerlaw::{self, PowerLawConfig};
use vdm_topology::transit_stub::{attach_hosts, generate, TransitStubConfig};
use vdm_topology::{Graph, NodeId};

/// What a run prints: the gated outcome plus everything else worth
/// reading.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record one output check; a failed check marks the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        println!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        );
        self.correct &= ok;
    }
}

/// A routed underlay plus how long its two build phases took.
pub struct BuiltUnderlay {
    pub underlay: Arc<RoutedUnderlay>,
    /// Topology generation and host attachment.
    pub generate: Duration,
    /// Route table (dense) or first routing row (on demand).
    pub routes: Duration,
}

/// The Chapter 3 transit-stub testbed for `members` overlay nodes with
/// its dense route table — the same sizing and inputs as
/// `vdm_experiments::setup::ch3_setup` on lossless links, built cold.
pub fn build_ch3(members: usize, seed: u64) -> BuiltUnderlay {
    let needed = members + 1;
    let mut cfg = TransitStubConfig::paper_792();
    if needed > 768 {
        let mut target = needed + needed / 8 + 24;
        loop {
            cfg = TransitStubConfig::sized(target);
            let stubs = cfg.total_routers() - cfg.transit_domains * cfg.transit_nodes;
            if stubs >= needed {
                break;
            }
            target += target / 5;
        }
    }
    let t0 = Instant::now();
    let mut g = generate(&cfg, seed);
    let hosts = attach_hosts(&mut g, needed, seed, 0.0);
    let generate = t0.elapsed();
    let t1 = Instant::now();
    let underlay = Arc::new(RoutedUnderlay::new(g, hosts));
    BuiltUnderlay {
        underlay,
        generate,
        routes: t1.elapsed(),
    }
}

/// The A9 power-law graph for `members` overlay hosts — the same
/// inputs as `vdm_experiments::setup::scale_setup`.
pub fn build_powerlaw_graph(members: usize, seed: u64) -> (Arc<Graph>, Vec<NodeId>) {
    let routers = members + members / 8 + 32;
    let mut g = powerlaw::generate(
        &PowerLawConfig {
            nodes: routers,
            ..PowerLawConfig::default()
        },
        seed,
    );
    let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
    (Arc::new(g), hosts)
}

/// A fresh on-demand router over `graph`: an empty row cache every
/// time, and no artifact persistence.
pub fn on_demand(graph: &Arc<Graph>, hosts: &[NodeId]) -> Arc<RoutedUnderlay> {
    Arc::new(RoutedUnderlay::on_demand(
        Arc::clone(graph),
        hosts.to_vec(),
        None,
        None,
    ))
}

/// Compare `ours` with the library set-up's underlay on a grid of host
/// pairs; returns the number of pairs whose RTT bits differ.
pub fn rtt_mismatches(ours: &dyn Underlay, lib: &dyn Underlay, step: usize) -> usize {
    let n = ours.num_hosts();
    if lib.num_hosts() != n {
        return n;
    }
    let mut bad = 0;
    for a in (0..n).step_by(step) {
        for b in (1..n).step_by(step + 1) {
            let (a, b) = (HostId(a as u32), HostId(b as u32));
            if ours.rtt_ms(a, b).to_bits() != lib.rtt_ms(a, b).to_bits() {
                bad += 1;
            }
        }
    }
    bad
}

/// Cold set-up builds per run: at least this many, and more while they
/// have taken less than [`SETUP_BUDGET_S`] (cheap set-ups get more
/// samples); `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_MAX_REPS: usize = 50;
pub const SETUP_BUDGET_S: f64 = 3.0;

/// Time `build` cold, repeatedly as above; returns every duration and
/// the last build.
pub fn cold_setups<T>(mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        let b = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(b);
    }
    (times, last.expect("at least one set-up"))
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One repetition as [`measure`] sees it.
pub struct Rep<O> {
    /// Wall time of its timed phase.
    pub wall: Duration,
    pub fp: Fingerprint,
    /// Operations it attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// What the workload's per-layer figures read from it.
    pub out: O,
}

/// A workload as [`measure`] drives it.
pub trait Workload {
    /// What a cold set-up builds besides the underlay; timed, then
    /// dropped untimed.
    type Cold;
    /// What a repetition leaves for the per-layer figures.
    type Out;
    /// The per-layer metric charged with the traced phase's time that
    /// no wrapper covers.
    const REMAINDER: &'static str;

    /// One cold set-up: the underlay and whatever else a run needs.
    fn cold(&self) -> (BuiltUnderlay, Self::Cold);
    /// The check pass on the set-up's underlay, which is also the
    /// untimed warm-up repetition; makes every output check.
    fn check(&self, base: &Arc<RoutedUnderlay>, r: &mut Report) -> Rep<Self::Out>;
    /// One repetition from the same starting state as every other.
    fn plain(&self, base: &Arc<RoutedUnderlay>) -> Rep<Self::Out>;
    /// The same repetition with every layer boundary wrapped, and the
    /// per-boundary totals of its timed phase.
    fn traced(&self, base: &Arc<RoutedUnderlay>) -> (Rep<Self::Out>, [SlotTotals; prof::SLOTS]);
    /// The workload's own per-layer figures, from the check pass and
    /// the last traced repetition; `plain_wall` is the mean plain
    /// repetition, s.
    fn layers(
        &self,
        l: &mut Layers,
        check: &Rep<Self::Out>,
        last: &Rep<Self::Out>,
        plain_wall: f64,
    );
}

fn account<O>(r: &mut Report, rep: &Rep<O>) {
    r.attempted += rep.attempted;
    r.failed += rep.failed;
}

/// The measuring protocol every workload follows: timed cold set-ups,
/// the check pass, then plain repetitions for `seconds` of timed phases
/// and at least 3 (end-to-end metrics), or, with `trace`, plain and
/// traced repetitions alternating for as long and at least twice
/// (per-layer metrics). Every repetition must reproduce the check
/// pass's fingerprint.
pub fn measure<W: Workload>(w: &W, seconds: f64, trace: bool) -> Report {
    let mut r = Report::new();
    let (mut gen_s, mut routes_s) = (Vec::new(), Vec::new());
    let (setup_s, (built, _)) = prof::span("setup", || {
        cold_setups(|| {
            let (b, cold) = w.cold();
            gen_s.push(b.generate.as_secs_f64());
            routes_s.push(b.routes.as_secs_f64());
            (b, cold)
        })
    });
    let base = built.underlay;

    let check = prof::span("check", || w.check(&base, &mut r));
    let fp = check.fp.clone();
    println!("fingerprint: {fp}");
    account(&mut r, &check);

    if !trace {
        let mut walls = Vec::new();
        let mut same = true;
        prof::span("timed", || {
            while walls.len() < 3 || walls.iter().sum::<f64>() < seconds {
                let rep = prof::span(&format!("rep{}", walls.len()), || w.plain(&base));
                same &= rep.fp == fp;
                account(&mut r, &rep);
                walls.push(rep.wall.as_secs_f64());
            }
        });
        r.check(
            "repetitions reproduce the check pass",
            same,
            format!("{} reps", walls.len()),
        );
        end_to_end(&mut r, &setup_s, &walls, &fp);
        return r;
    }

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    let mut spent = 0.0;
    while traced.len() < 2 || spent < seconds {
        let i = traced.len();
        let p = prof::span(&format!("plain{i}"), || w.plain(&base));
        let (t, totals) = prof::span(&format!("traced{i}"), || w.traced(&base));
        spent += p.wall.as_secs_f64() + t.wall.as_secs_f64();
        r.check(
            &format!("traced rep {i} fingerprint equals the plain run's"),
            t.fp == fp && p.fp == fp,
            &t.fp,
        );
        account(&mut r, &p);
        account(&mut r, &t);
        plain.push(p.wall.as_secs_f64());
        traced.push((t.wall, totals));
        last = Some(t);
    }
    let last = last.expect("at least two traced reps");
    let mut l = Layers::default();
    l.setup(&gen_s, &routes_s);
    let traced_wall = l.boundaries(&traced, W::REMAINDER);
    let plain_wall = plain.iter().sum::<f64>() / plain.len() as f64;
    l.set("trace.overhead_ratio", traced_wall / plain_wall - 1.0);
    w.layers(&mut l, &check, &last, plain_wall);
    l.report(&mut r);
    r
}

/// Report the end-to-end metrics of a plain run from its set-up times
/// and the wall times of its timed repetitions.
pub fn end_to_end(r: &mut Report, setup_s: &[f64], walls: &[f64], fp: &Fingerprint) {
    let wall = median(walls);
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!(
        "timed phase: median {wall:.4} s over reps [{}]",
        list.join(" ")
    );
    r.metric("setup_s", median(setup_s), "s");
    r.metric("joins_per_s", fp.attachments as f64 / wall, "1/s");
    r.metric("deliveries_per_s", fp.deliveries as f64 / wall, "1/s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Process peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The simulated outcome a speed-only change must leave unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub attachments: u64,
    pub deliveries: u64,
    pub tree: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events={} attachments={} deliveries={} tree={:016x}",
            self.events, self.attachments, self.deliveries, self.tree
        )
    }
}

/// FNV-1a over the parent vector (`u32::MAX` for no parent).
pub fn tree_hash(parent: &[Option<HostId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parent {
        for b in p.map_or(u32::MAX, |p| p.0).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// In-session members without a rooted parent chain, and the structural
/// errors of the tree.
pub fn detached_and_errors(snap: &TreeSnapshot, limits: &[u32]) -> (usize, usize) {
    let depths = snap.depths();
    let detached = snap
        .members
        .iter()
        .filter(|m| depths[m.idx()].is_none())
        .count();
    (detached, snap.validate(limits).len())
}
