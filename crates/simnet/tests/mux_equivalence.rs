//! The window mux against the merge it must equal.
//!
//! [`TrafficMux`] fills every actor up to a window's end, radix-sorts
//! the window and serves it; the definition of its output is much
//! shorter — repeatedly take the packet of the live actor with the
//! least `(peek(), index)`. These properties hold the two to the same
//! packet sequence, over populations that fit in one window and over
//! populations built to sit on the windows' edges.

use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use ah_simnet::mux::{Actor, TrafficMux, BATCH, WINDOW};
use proptest::prelude::*;

/// `left` packets from `next`, `burst` of them at each timestamp, the
/// timestamps `step` µs apart; a step of 0 repeats one timestamp. Every
/// packet names its actor (`src`) and its position in the actor's own
/// stream (`dst`).
#[derive(Clone)]
struct Ticker {
    id: u32,
    next: u64,
    step: u64,
    burst: u32,
    sent: u32,
    left: usize,
}

impl Ticker {
    fn new(id: usize, next: u64, step: u64, burst: u32, left: usize) -> Ticker {
        Ticker { id: id as u32, next, step, burst, sent: 0, left }
    }
}

impl Actor for Ticker {
    fn peek(&self) -> Option<Ts> {
        (self.left > 0).then(|| Ts::from_micros(self.next))
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = Ts::from_micros(self.next);
        self.sent += 1;
        self.left -= 1;
        if self.sent.is_multiple_of(self.burst) {
            self.next += self.step;
        }
        PacketMeta::tcp_syn(ts, Ipv4Addr4(self.id), Ipv4Addr4(self.sent), 1, 80)
    }
}

/// The reference merge: the least `(peek(), index)` emits, until no
/// actor has a packet.
fn reference(mut actors: Vec<Ticker>) -> Vec<PacketMeta> {
    let mut out = Vec::new();
    while let Some(i) = (0..actors.len())
        .filter(|&i| actors[i].peek().is_some())
        .min_by_key(|&i| (actors[i].peek(), i))
    {
        out.push(actors[i].emit());
    }
    out
}

fn mux_of(actors: &[Ticker]) -> TrafficMux {
    let mut mux = TrafficMux::new();
    for a in actors {
        mux.add(Box::new(a.clone()));
    }
    mux
}

/// An empty actor, then up to twelve actors of up to 150 packets: the
/// whole population fits in one window. Starts and steps come from
/// ranges small enough that timestamps collide across and within
/// actors, and short actors finish while long ones go on.
fn population() -> impl Strategy<Value = Vec<Ticker>> {
    proptest::collection::vec((0u64..40, 0u64..4, 0usize..150), 0..13).prop_map(|free| {
        std::iter::once((0, 1, 0))
            .chain(free)
            .enumerate()
            .map(|(i, (next, step, left))| Ticker::new(i, next, step, 1, left))
            .collect()
    })
}

/// Populations that cross window ends. Every timestamp sits on a grid
/// of `g` µs, `g` a power of two up to 16, so the actors' ties sit on
/// the grid points where windows end. In index order:
///
/// * an empty actor;
/// * two to seven sparse actors, 1,024 to 8,191 grid steps between
///   packets: they sit out whole windows;
/// * three to five dense actors of 1,500 to 3,999 packets, 8 to 63 grid
///   steps apart: together more than [`WINDOW`] packets, at most 5/8 of
///   a packet per grid step;
/// * a flood of `WINDOW` to `3 × WINDOW` packets that starts mid-stream
///   at 8 to 31 packets per grid step — at least ten times the dense
///   actors' combined rate, so a window sized for the background holds
///   the step;
/// * a late actor whose first packet comes 1 to 3 days after the rest,
///   across an idle gap no window covers.
fn windowed() -> impl Strategy<Value = Vec<Ticker>> {
    (
        0u32..5,
        proptest::collection::vec((0u64..8192, 1024u64..8192, 1usize..20), 2..8),
        proptest::collection::vec((0u64..64, 8u64..64, 1500usize..4000), 3..6),
        (0u64..20_000, 8u32..32, WINDOW..3 * WINDOW),
        (1u64..4, 0u64..1000, 1u64..64, 1usize..2000),
    )
        .prop_map(|(grid, sparse, dense, flood, late)| {
            let g = 1u64 << grid;
            let mut shapes = vec![(0, 1, 1, 0)];
            shapes.extend(sparse.into_iter().map(|(at, step, n)| (at * g, step * g, 1, n)));
            shapes.extend(dense.into_iter().map(|(at, step, n)| (at * g, step * g, 1, n)));
            let (at, burst, n) = flood;
            shapes.push((at * g, g, burst, n));
            let (days, at, step, n) = late;
            shapes.push((Ts::from_days(days).micros() + at * g, step * g, 1, n));
            shapes
                .into_iter()
                .enumerate()
                .map(|(i, (next, step, burst, left))| Ticker::new(i, next, step, burst, left))
                .collect()
        })
}

/// The first position where `got` and `want` differ.
fn first_difference(got: &[PacketMeta], want: &[PacketMeta]) -> Option<usize> {
    got.iter().zip(want).position(|(g, w)| g != w)
}

proptest! {
    /// Packet by packet: same `(ts, actor, position)` sequence, same
    /// `emitted()`, and dry exactly when the reference is.
    #[test]
    fn window_mux_equals_the_reference_merge(actors in population()) {
        let want = reference(actors.clone());
        let mut mux = mux_of(&actors);
        let got: Vec<PacketMeta> = std::iter::from_fn(|| mux.next_packet()).collect();
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(got == want, "first difference at {:?}", first_difference(&got, &want));
        prop_assert_eq!(mux.emitted(), want.len() as u64);
        prop_assert!(mux.next_packet().is_none());
    }

    /// The same across at least three window ends: `next_packet` all the way, and
    /// `next_packet` for a while, then `next_batch` for the rest.
    #[test]
    fn windows_equal_the_reference_merge(actors in windowed(), cut in 0usize..3 * WINDOW) {
        let want = reference(actors.clone());
        let mut mux = mux_of(&actors);
        let got: Vec<PacketMeta> = std::iter::from_fn(|| mux.next_packet()).collect();
        prop_assert!(got == want, "first difference at {:?}", first_difference(&got, &want));
        prop_assert_eq!(mux.emitted(), want.len() as u64);
        prop_assert!(mux.next_packet().is_none());
        prop_assert!(mux.windows() >= 4, "{} windows: fewer than three ends crossed", mux.windows());

        let mut mux = mux_of(&actors);
        let mut got: Vec<PacketMeta> = (0..cut).map_while(|_| mux.next_packet()).collect();
        while mux.next_batch(&mut got, BATCH) > 0 {}
        prop_assert!(got == want, "cut {}: first difference at {:?}", cut, first_difference(&got, &want));
        prop_assert_eq!(mux.emitted(), want.len() as u64);
    }

    /// `next_batch` is `max` calls of `next_packet`, for batch sizes on
    /// both sides of the pipeline's pull size and drawn sizes up to three
    /// windows long, so that batches straddle window ends.
    #[test]
    fn next_batch_equals_repeated_next_packet(
        actors in windowed(),
        drawn in proptest::collection::vec(2usize..3 * WINDOW, 3),
    ) {
        let want = reference(actors.clone());
        for max in [1usize, 256, 257].into_iter().chain(drawn) {
            let mut mux = mux_of(&actors);
            let mut got = Vec::new();
            loop {
                let before = got.len();
                let n = mux.next_batch(&mut got, max);
                prop_assert_eq!(n, got.len() - before);
                prop_assert_eq!(n, max.min(want.len() - before), "max {}", max);
                prop_assert_eq!(mux.emitted(), got.len() as u64);
                if n == 0 {
                    break;
                }
            }
            prop_assert!(got == want, "max {}: first difference at {:?}", max, first_difference(&got, &want));
        }
    }
}

/// A tie on every window end. One actor ticks every µs from 0 to `M`;
/// before it in index order, actor `t − 1` has one packet, at `t`, and
/// nothing before. Whatever the windows' spans, the end of each window
/// up to `M` falls on a tick where an actor that sat the window out
/// has its packet, and that packet must come out before the ticker's.
#[test]
fn a_tie_on_a_window_end_goes_to_the_lower_index() {
    const M: u64 = 4 * WINDOW as u64;
    let mut actors: Vec<Ticker> =
        (1..=M).map(|t| Ticker::new(t as usize - 1, t, 1, 1, 1)).collect();
    actors.push(Ticker::new(M as usize, 0, 1, 1, M as usize + 1));
    let mut mux = mux_of(&actors);
    let got: Vec<(u64, u32)> =
        std::iter::from_fn(|| mux.next_packet()).map(|p| (p.ts.micros(), p.src.0)).collect();
    let want: Vec<(u64, u32)> = std::iter::once((0, M as u32))
        .chain((1..=M).flat_map(|t| [(t, t as u32 - 1), (t, M as u32)]))
        .collect();
    assert!(mux.windows() >= 4, "{} windows: fewer than three ends crossed", mux.windows());
    assert_eq!(got.len(), want.len());
    assert!(
        got == want,
        "first difference at {:?}",
        got.iter().zip(&want).position(|(g, w)| g != w)
    );
}
