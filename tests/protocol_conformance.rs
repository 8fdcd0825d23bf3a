//! Conformance suite for the [`ConcurrencyProtocol`] trait: one
//! behavioral contract, executed against **all four** protocol
//! implementations (hierarchical, Naimi–Trehel, Raymond, Suzuki–Kasami).
//! Any divergence in trait semantics — duplicate-ticket handling, error
//! cases, cancel/try/downgrade behavior, quiescence — shows up here.

use hlock::core::{
    audit_at_rest, CancelOutcome, ConcurrencyProtocol, Effect, EffectSink, EpochScope, Inspect,
    LockId, LockSpace, Mode, NodeId, ProtocolConfig, ProtocolError, Ticket,
};
use hlock::naimi::NaimiSpace;
use hlock::raymond::RaymondSpace;
use hlock::suzuki::SuzukiSpace;

const L: LockId = LockId(0);
const N: usize = 4;

/// Delivers all in-flight messages (FIFO) and returns observed grants.
fn pump<P: ConcurrencyProtocol>(
    nodes: &mut [P],
    fx: &mut EffectSink<P::Message>,
    from: NodeId,
) -> Vec<(NodeId, Ticket)> {
    let mut grants = Vec::new();
    let mut wire: Vec<(NodeId, NodeId, P::Message)> = Vec::new();
    let drain = |fx: &mut EffectSink<P::Message>,
                 at: NodeId,
                 wire: &mut Vec<(NodeId, NodeId, P::Message)>,
                 grants: &mut Vec<(NodeId, Ticket)>| {
        for e in fx.drain() {
            match e {
                Effect::Send { to, message } => wire.push((at, to, message)),
                Effect::Granted { ticket, .. } => grants.push((at, ticket)),
                Effect::SetTimer { .. } => {}
            }
        }
    };
    drain(fx, from, &mut wire, &mut grants);
    while !wire.is_empty() {
        let (src, dst, msg) = wire.remove(0);
        nodes[dst.index()].on_message(src, msg, fx);
        drain(fx, dst, &mut wire, &mut grants);
    }
    grants
}

/// The shared contract, generic over the protocol.
fn conformance<P: ConcurrencyProtocol + Inspect>(mut nodes: Vec<P>, name: &str) {
    let mut fx = EffectSink::new();

    // 1. Remote acquisition: node 2 gets the lock from the initial home.
    nodes[2].request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
    let grants = pump(&mut nodes, &mut fx, NodeId(2));
    assert_eq!(grants, vec![(NodeId(2), Ticket(1))], "{name}: remote grant");
    assert_eq!(nodes[2].held_modes(L), vec![Mode::Write], "{name}");

    // 2. Duplicate tickets are rejected without corrupting state.
    assert_eq!(
        nodes[2].request(L, Mode::Write, Ticket(1), &mut fx).unwrap_err(),
        ProtocolError::DuplicateTicket { ticket: Ticket(1) },
        "{name}"
    );

    // 3. Releasing a non-held ticket errs; upgrade of a held exclusive
    //    ticket is always legal (grants W).
    assert_eq!(
        nodes[2].release(L, Ticket(42), &mut fx).unwrap_err(),
        ProtocolError::NotHeld { ticket: Ticket(42) },
        "{name}"
    );
    nodes[2].upgrade(L, Ticket(1), &mut fx).unwrap_or_else(|e| panic!("{name}: {e}"));
    fx.drain().count();

    // 4. try_request is honest: a non-holder fails without messages, the
    //    holder's node refuses while the lock is held locally.
    assert!(!nodes[1].try_request(L, Mode::Write, Ticket(7), &mut fx).unwrap(), "{name}");
    assert!(fx.is_empty(), "{name}: try_request must not send");
    assert!(!nodes[2].try_request(L, Mode::Write, Ticket(8), &mut fx).unwrap(), "{name}");
    fx.drain().count();

    // 5. Unknown locks are rejected uniformly.
    assert_eq!(
        nodes[0].request(LockId(9), Mode::Write, Ticket(9), &mut fx).unwrap_err(),
        ProtocolError::UnknownLock { lock: LockId(9) },
        "{name}"
    );

    // 6. Cancellation of an in-flight request aborts silently and the
    //    system keeps working for everyone else. (Each API call is pumped
    //    separately so message senders are attributed correctly.)
    nodes[3].request(L, Mode::Write, Ticket(2), &mut fx).unwrap();
    let outcome = nodes[3].cancel(L, Ticket(2), &mut fx).unwrap();
    assert!(matches!(outcome, CancelOutcome::WillAbort | CancelOutcome::Cancelled), "{name}");
    let grants = pump(&mut nodes, &mut fx, NodeId(3));
    assert!(
        !grants.iter().any(|&(n, t)| n == NodeId(3) && t == Ticket(2)),
        "{name}: cancelled ticket must not surface on request: {grants:?}"
    );
    // Release the holder; deliver everything.
    nodes[2].release(L, Ticket(1), &mut fx).unwrap();
    let grants = pump(&mut nodes, &mut fx, NodeId(2));
    assert!(
        !grants.iter().any(|&(n, t)| n == NodeId(3) && t == Ticket(2)),
        "{name}: cancelled ticket must not surface on release: {grants:?}"
    );

    // 7. Quiescence and the at-rest safety oracle at the end: exactly one
    //    token, and a consistent tree for the hierarchical protocol.
    assert!(nodes.iter().all(|n| n.is_quiescent()), "{name}");
    let live: Vec<(NodeId, &P)> = nodes.iter().map(|n| (n.node_id(), n)).collect();
    let findings = audit_at_rest(&live, 1, EpochScope::Global, true, 0);
    assert!(findings.is_empty(), "{name}: {findings:?}");
    // 8. One more full cycle to prove the system is still live.
    nodes[1].request(L, Mode::Write, Ticket(3), &mut fx).unwrap();
    let grants = pump(&mut nodes, &mut fx, NodeId(1));
    assert_eq!(grants, vec![(NodeId(1), Ticket(3))], "{name}: still live");
    nodes[1].release(L, Ticket(3), &mut fx).unwrap();
    pump(&mut nodes, &mut fx, NodeId(1));
}

#[test]
fn hierarchical_conforms() {
    let nodes: Vec<LockSpace> = (0..N as u32)
        .map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), ProtocolConfig::default()))
        .collect();
    conformance(nodes, "hierarchical");
}

#[test]
fn hierarchical_eager_conforms() {
    let cfg = ProtocolConfig::paper().with_eager_transfers();
    let nodes: Vec<LockSpace> =
        (0..N as u32).map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), cfg)).collect();
    conformance(nodes, "hierarchical-eager");
}

#[test]
fn naimi_conforms() {
    let nodes: Vec<NaimiSpace> =
        (0..N as u32).map(|i| NaimiSpace::new(NodeId(i), 1, NodeId(0))).collect();
    conformance(nodes, "naimi");
}

#[test]
fn raymond_conforms() {
    let nodes: Vec<RaymondSpace> =
        (0..N as u32).map(|i| RaymondSpace::new(NodeId(i), N, 1, NodeId(0))).collect();
    conformance(nodes, "raymond");
}

#[test]
fn suzuki_conforms() {
    let nodes: Vec<SuzukiSpace> =
        (0..N as u32).map(|i| SuzukiSpace::new(NodeId(i), N, 1, NodeId(0))).collect();
    conformance(nodes, "suzuki");
}
