//! In-memory self-time accounting for the traced run.
//!
//! Every wrapped call enters a frame on a per-thread stack; on exit the
//! frame's wall time minus the time of the frames nested inside it is
//! added to its slot as self time. Only sums are kept (a soak run makes
//! millions of calls), plus a short list of coarse spans — setup, each
//! repetition, the check pass — with their parents, printed at the end.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Message kinds of `vdm_overlay::Msg`, in declaration order, plus the
/// agent's non-message entry points.
pub const AGENT_KINDS: [&str; 23] = [
    "info_req",
    "info_resp",
    "ping",
    "pong",
    "conn_req",
    "conn_resp",
    "parent_change",
    "grandparent_change",
    "root_path",
    "heartbeat",
    "leave",
    "child_leave",
    "ancestor_list",
    "nack",
    "data",
    "cross_nack",
    "cross_data",
    "peer_req",
    "peer_list",
    "timer",
    "join_cmd",
    "leave_cmd",
    "emit_data",
];

/// Slot indices: the agent kinds first, then the other boundaries.
pub const TIMER: usize = 19;
pub const JOIN_CMD: usize = 20;
pub const LEAVE_CMD: usize = 21;
pub const EMIT_DATA: usize = 22;
pub const WALK_DECIDE: usize = 23;
pub const WALK_VDIST: usize = 24;
pub const UNDERLAY: usize = 25;
pub const CORE_HANDLE: usize = 26;
pub const PROTO_ENCODE: usize = 27;
pub const PROTO_DECODE: usize = 28;
pub const SLOTS: usize = 29;

/// Calls and self time of one boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlotTotals {
    pub calls: u64,
    pub self_time: Duration,
}

/// A coarse span: name, parent index, start offset and duration.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub dur: Duration,
}

struct Frame {
    slot: usize,
    start: Instant,
    child: Duration,
}

struct Prof {
    stack: Vec<Frame>,
    slots: [SlotTotals; SLOTS],
    origin: Instant,
    spans: Vec<Span>,
    open_spans: Vec<usize>,
}

thread_local! {
    static PROF: RefCell<Prof> = RefCell::new(Prof {
        stack: Vec::with_capacity(8),
        slots: [SlotTotals::default(); SLOTS],
        origin: Instant::now(),
        spans: Vec::new(),
        open_spans: Vec::new(),
    });
}

/// Run `f` as one call of `slot`, charging it the time not spent in
/// nested timed calls.
#[inline]
pub fn time<R>(slot: usize, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    PROF.with(|p| {
        p.borrow_mut().stack.push(Frame {
            slot,
            start,
            child: Duration::ZERO,
        })
    });
    let r = f();
    let end = Instant::now();
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let frame = p.stack.pop().expect("balanced timing frames");
        let total = end - frame.start;
        let s = &mut p.slots[frame.slot];
        s.calls += 1;
        s.self_time += total.saturating_sub(frame.child);
        if let Some(parent) = p.stack.last_mut() {
            parent.child += total;
        }
    });
    r
}

/// Take and reset the per-slot totals.
pub fn take_totals() -> [SlotTotals; SLOTS] {
    PROF.with(|p| std::mem::replace(&mut p.borrow_mut().slots, [SlotTotals::default(); SLOTS]))
}

/// Run `f` inside a coarse span named `name`, nested in whichever span
/// is open.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let idx = PROF.with(|p| {
        let mut p = p.borrow_mut();
        let start = p.origin.elapsed();
        let parent = p.open_spans.last().copied();
        p.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            dur: Duration::ZERO,
        });
        let idx = p.spans.len() - 1;
        p.open_spans.push(idx);
        idx
    });
    let r = f();
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let end = p.origin.elapsed();
        p.open_spans.pop();
        let s = &mut p.spans[idx];
        s.dur = end - s.start;
    });
    r
}

/// All coarse spans recorded so far.
pub fn spans() -> Vec<Span> {
    PROF.with(|p| p.borrow().spans.clone())
}
