//! Quickstart: step the sans-I/O protocol by hand.
//!
//! Three nodes share one lock in a `World`: their protocol state and the
//! frames in flight between them, the state machine the simulator and
//! the model checker both drive. We play the network ourselves: every
//! API call is one step, and every frame it puts on the wire is
//! delivered, oldest first, by another. Watch the paper's machinery
//! appear: a token transfer, a concurrent copy grant, release
//! suppression and retention, and a zero-message local acquisition.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hlock::core::{ConcurrencyProtocol, LockId, LockSpace, Mode, NodeId, ProtocolConfig, Ticket};
use hlock::sim::{Action, Out, Step, World};

fn main() {
    // Literal Rule 3.2 transfers, to showcase the token moving.
    let cfg = ProtocolConfig::default().with_eager_transfers();
    const LOCK: LockId = LockId(0);
    // Node 0 is the initial token holder for every lock.
    let nodes = (0..3).map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), cfg)).collect();
    let mut world = World::new(nodes, false);

    // Runs `call` at `node` and delivers every frame it causes, printing
    // the wire and the grants; returns how many frames went on the wire.
    let mut run = |node: u32, call: Action| {
        let (mut at, mut frames) = (NodeId(node), 0);
        let mut next = Some(Step::Call { node: at, calls: vec![call] });
        while let Some(step) = next {
            let mut out = Vec::new();
            world.step(&step, &mut out).expect("a valid call");
            for done in out {
                if let Out::Granted { lock, ticket, mode } = done {
                    println!("   GRANTED {lock} in mode {mode} to {at} ({ticket})");
                }
            }
            next = world.inflight().next().map(|f| {
                for message in &f.messages {
                    println!("   wire: {} -> {}: {message}", f.from, f.to);
                }
                (at, frames) = (f.to, frames + 1);
                Step::Deliver(f.id)
            });
        }
        frames
    };

    println!("1) node 1 requests a READ lock — the request travels to the token (node 0),");
    println!("   which owns nothing, so the token itself moves (Rule 3.2, transfer):");
    run(1, Action::request(LOCK, Mode::Read, Ticket(1)));

    println!("\n2) node 2 requests INTENT-READ — IR is compatible with R and weaker,");
    println!("   so the new token node (1) grants a *copy* and keeps the token:");
    run(2, Action::request(LOCK, Mode::IntentRead, Ticket(2)));

    println!("\n3) node 2 requests IR again while already owning IR:");
    println!("   Rule 2 — the critical section is entered with ZERO messages:");
    assert_eq!(run(2, Action::request(LOCK, Mode::IntentRead, Ticket(3))), 0, "no messages");

    println!("\n4) node 2 releases one of its IR holds — still owns IR, so Rule 5.2");
    println!("   suppresses the release message entirely:");
    assert_eq!(run(2, Action::release(LOCK, Ticket(3))), 0, "release was suppressed");

    println!("\n5) the last releases send nothing either: node 2 keeps its last IR");
    println!("   (Rule 5.3, sticky intention-read) and node 1 holds the token:");
    assert_eq!(run(2, Action::release(LOCK, Ticket(2))), 0, "the IR was retained");
    assert_eq!(run(1, Action::release(LOCK, Ticket(1))), 0, "the token node has no parent");

    assert!(world.spaces().iter().all(|n| n.is_quiescent()));
    println!("\nall quiescent; the token now rests at node 1.");
}
