//! The per-layer metrics of the traced run: one fixed list, printed in
//! full by every workload (a layer a workload never enters reads 0).

use crate::common::{median, Report};
use crate::prof::{self, SlotTotals};
use std::time::Duration;
use vdm_topology::RouterStats;

/// Per-layer metric names and units, in print order; the agent kinds
/// are inserted after `engine.delivered`.
const HEAD: [(&str, &str); 14] = [
    ("topology.generate_s", "s"),
    ("topology.routes_s", "s"),
    ("router.row_misses", "count"),
    ("router.row_hits", "count"),
    ("router.row_evictions", "count"),
    ("router.hit_ratio", "ratio"),
    ("underlay.queries", "count"),
    ("underlay.query_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.self_s", "s"),
    ("engine.control_sent", "count"),
    ("engine.data_sent", "count"),
    ("engine.delivered", "count"),
];

const TAIL: [(&str, &str); 18] = [
    ("agent.control_per_delivery", "ratio"),
    ("walk.decide.calls", "count"),
    ("walk.decide.s", "s"),
    ("walk.vdist.calls", "count"),
    ("walk.restarts", "count"),
    ("repair.nacks_sent", "count"),
    ("repair.chunks_repaired", "count"),
    ("failover.successes", "count"),
    ("admission.throttled_shed", "count"),
    ("tree.error_points", "count"),
    ("core.handle.calls", "count"),
    ("core.handle.self_s", "s"),
    ("proto.frames", "count"),
    ("proto.encode.s", "s"),
    ("proto.decode.s", "s"),
    ("proto.bytes_per_frame", "bytes"),
    ("proto.frames_per_delivery", "ratio"),
    ("harness.loop_s", "s"),
];

/// Every per-layer metric as `(name, unit)`, in print order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        HEAD.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for k in prof::AGENT_KINDS {
        v.push((format!("agent.{k}.calls"), "count"));
        v.push((format!("agent.{k}.self_s"), "s"));
    }
    v.extend(TAIL.iter().map(|&(n, u)| (n.to_string(), u)));
    v.push(("trace.overhead_ratio".to_string(), "ratio"));
    v
}

/// Per-layer values collected by a workload, one slot per name of
/// [`names`]; unset slots print as 0.
pub struct Layers(Vec<(String, &'static str, f64)>);

impl Default for Layers {
    fn default() -> Self {
        Self(names().into_iter().map(|(n, u)| (n, u, 0.0)).collect())
    }
}

impl Layers {
    /// Set one metric; a name outside [`names`] is a bug in the
    /// benchmark and panics rather than print as 0.
    pub fn set(&mut self, name: &str, v: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, ..)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.2 = v;
    }

    /// Setup phase timings (medians over the cold builds).
    pub fn setup(&mut self, generate: &[f64], routes: &[f64]) {
        self.set("topology.generate_s", median(generate));
        self.set("topology.routes_s", median(routes));
    }

    pub fn router(&mut self, s: RouterStats) {
        self.set("router.row_misses", s.misses as f64);
        self.set("router.row_hits", s.hits as f64);
        self.set("router.row_evictions", s.evictions as f64);
        let lookups = s.hits + s.misses;
        if lookups > 0 {
            self.set("router.hit_ratio", s.hits as f64 / lookups as f64);
        }
    }

    /// Per-boundary figures averaged over the traced repetitions, and
    /// the part of the timed phase no wrapper covers, charged to
    /// `remainder` (the engine, or the benchmark's own event loop).
    /// Returns the average traced wall time.
    pub fn boundaries(
        &mut self,
        reps: &[(Duration, [SlotTotals; prof::SLOTS])],
        remainder: &str,
    ) -> f64 {
        let n = reps.len() as f64;
        let mut sum = [SlotTotals::default(); prof::SLOTS];
        let mut wall = 0.0;
        for (w, t) in reps {
            wall += w.as_secs_f64() / n;
            for (s, r) in sum.iter_mut().zip(t) {
                s.calls += r.calls;
                s.self_time += r.self_time;
            }
        }
        let calls = |i: usize| sum[i].calls as f64 / n;
        let secs = |i: usize| sum[i].self_time.as_secs_f64() / n;
        for (i, k) in prof::AGENT_KINDS.iter().enumerate() {
            self.set(&format!("agent.{k}.calls"), calls(i));
            self.set(&format!("agent.{k}.self_s"), secs(i));
        }
        self.set("walk.decide.calls", calls(prof::WALK_DECIDE));
        self.set("walk.decide.s", secs(prof::WALK_DECIDE));
        self.set("walk.vdist.calls", calls(prof::WALK_VDIST));
        self.set("underlay.queries", calls(prof::UNDERLAY));
        self.set("underlay.query_s", secs(prof::UNDERLAY));
        self.set("core.handle.calls", calls(prof::CORE_HANDLE));
        self.set("core.handle.self_s", secs(prof::CORE_HANDLE));
        self.set("proto.encode.s", secs(prof::PROTO_ENCODE));
        self.set("proto.decode.s", secs(prof::PROTO_DECODE));
        let covered: f64 = (0..prof::SLOTS).map(secs).sum();
        self.set(remainder, wall - covered);
        println!(
            "trace: wrapped layers {:.4} s + {remainder} {:.4} s = traced phase {:.4} s ({} reps)",
            covered,
            wall - covered,
            wall,
            reps.len()
        );
        wall
    }

    /// Move every per-layer metric into the report, in print order.
    pub fn report(self, r: &mut Report) {
        for (name, unit, v) in self.0 {
            r.metric(&name, v, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json` lists the same per-layer metrics, in the same
    /// order and with the same units, as the traced run prints.
    #[test]
    fn names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let listed: Vec<(String, String)> = per_layer
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                (name, unit.split('"').next().unwrap().to_string())
            })
            .collect();
        let ours: Vec<(String, String)> = super::names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
