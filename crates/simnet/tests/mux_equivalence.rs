//! The lane mux against the merge it must equal.
//!
//! [`TrafficMux`] generates every actor [`LANE`] packets ahead and
//! merges on a heap of packed keys; the definition of its output is
//! much shorter — repeatedly take the packet of the live actor with the
//! least `(peek(), index)`. These properties hold the two to the same
//! packet sequence over populations built to sit on the lane's edges.

use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use ah_simnet::mux::{Actor, TrafficMux, LANE};
use proptest::prelude::*;

/// `left` packets `step` µs apart from `next`; a step of 0 repeats one
/// timestamp. Every packet names its actor (`src`) and its position in
/// the actor's own stream (`dst`).
#[derive(Clone)]
struct Ticker {
    id: u32,
    next: u64,
    step: u64,
    sent: u32,
    left: usize,
}

impl Actor for Ticker {
    fn peek(&self) -> Option<Ts> {
        (self.left > 0).then(|| Ts::from_micros(self.next))
    }

    fn emit(&mut self) -> PacketMeta {
        let ts = Ts::from_micros(self.next);
        self.next += self.step;
        self.sent += 1;
        self.left -= 1;
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

/// Every population holds an empty actor and one each of exactly
/// `LANE − 1`, `LANE`, `LANE + 1` and more than `3 × LANE` packets, then
/// up to eight actors of arbitrary length. Starts and steps come from
/// ranges small enough that timestamps collide across and within actors,
/// and short actors finish while long ones are mid-lane.
fn population() -> impl Strategy<Value = Vec<Ticker>> {
    let shape = || (0u64..40, 0u64..4);
    (
        proptest::collection::vec(shape(), 5),
        proptest::collection::vec((shape(), 0usize..150), 0..9),
        0usize..LANE,
    )
        .prop_map(|(fixed, free, extra)| {
            let edges = [0, LANE - 1, LANE, LANE + 1, 3 * LANE + 1 + extra];
            let fixed = fixed.into_iter().zip(edges);
            fixed
                .chain(free)
                .enumerate()
                .map(|(i, ((next, step), left))| Ticker { id: i as u32, next, step, sent: 0, left })
                .collect()
        })
}

proptest! {
    /// Packet by packet: same `(ts, actor, position)` sequence, same
    /// `emitted()`, and dry exactly when the reference is.
    #[test]
    fn lane_mux_equals_the_reference_merge(actors in population()) {
        let want = reference(actors.clone());
        let mut mux = mux_of(&actors);
        let got: Vec<PacketMeta> = std::iter::from_fn(|| mux.next_packet()).collect();
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(got == want, "first difference at {:?}", got.iter().zip(&want).position(|(g, w)| g != w));
        prop_assert_eq!(mux.emitted(), want.len() as u64);
        prop_assert!(mux.next_packet().is_none());
    }

    /// `next_batch` is `max` calls of `next_packet`, for batch sizes on
    /// both sides of the lane size and of the pipeline's pull size.
    #[test]
    fn next_batch_equals_repeated_next_packet(actors in population()) {
        let want = reference(actors.clone());
        for max in [1usize, 31, 32, 33, 256, 257] {
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
            prop_assert!(got == want, "max {}", max);
        }
    }
}
