//! Priority arbitration (extension per the paper's §1 "strict priority
//! ordering", following its refs [11, 12]): queued requests are served
//! highest-priority first, FIFO within a priority; priorities survive
//! queue travel on token transfers; the default priority reproduces pure
//! FIFO behavior.

use hlock::core::{
    ConcurrencyProtocol, Effect, EffectSink, Envelope, LockId, LockSpace, Mode, NodeId, Payload,
    Priority, ProtocolConfig, Stamp, Ticket,
};
use hlock::sim::{Action, Step, World};

const L: LockId = LockId(0);

/// Applies `action` at `node` as one world step.
fn call(world: &mut World<LockSpace>, node: u32, action: Action) {
    let step = Step::Call { node: NodeId(node), calls: vec![action] };
    world.step(&step, &mut Vec::new()).expect("a valid call");
}

/// Delivers every frame in flight, oldest first, until none is left.
fn deliver_all(world: &mut World<LockSpace>) {
    loop {
        let Some(id) = world.inflight().next().map(|f| f.id) else { return };
        world.step(&Step::Deliver(id), &mut Vec::new()).expect("a delivery");
    }
}

#[test]
fn higher_priority_served_first_at_token() {
    let cfg = ProtocolConfig::default();
    let nodes = (0..3).map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), cfg)).collect();
    let mut world = World::new(nodes, false);
    // Token (node 0) holds W so incoming writers queue.
    call(&mut world, 0, Action::request(L, Mode::Write, Ticket(1)));
    // Node 1 requests W at NORMAL, then node 2 requests W at higher priority.
    call(&mut world, 1, Action::request(L, Mode::Write, Ticket(2)));
    deliver_all(&mut world);
    let (ticket, priority) = (Ticket(3), Priority(5));
    call(
        &mut world,
        2,
        Action::RequestWithPriority { lock: L, mode: Mode::Write, ticket, priority },
    );
    deliver_all(&mut world);
    // Release: the token must go to node 2 (priority 5) first.
    call(&mut world, 0, Action::release(L, Ticket(1)));
    let is_token = |m: &Envelope| matches!(m.payload, Payload::Token { .. });
    let to: Vec<NodeId> =
        world.inflight().filter(|f| f.messages.iter().any(is_token)).map(|f| f.to).collect();
    assert_eq!(to, vec![NodeId(2)], "higher priority wins despite arriving later");
    deliver_all(&mut world);
    // Node 2 releases; node 1 is served next (its entry travelled with
    // the token queue, priority preserved).
    call(&mut world, 2, Action::release(L, Ticket(3)));
    deliver_all(&mut world);
    let nodes = world.spaces();
    assert!(nodes.iter().all(|n| n.is_quiescent() || !n.lock_state(L).held().is_empty()));
    // Node 1 must now hold W.
    assert_eq!(nodes[1].lock_state(L).held().len(), 1);
}

#[test]
fn same_priority_is_fifo_by_stamp() {
    let cfg = ProtocolConfig::default();
    let mut a = LockSpace::new(NodeId(0), 1, NodeId(0), cfg);
    let mut fx = EffectSink::new();
    a.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
    fx.drain().count();
    for (n, stamp) in [(1u32, 10u64), (2, 20)] {
        a.on_message(
            NodeId(9),
            Envelope {
                lock: L,
                payload: Payload::Request {
                    origin: NodeId(n),
                    mode: Mode::Write,
                    stamp: Stamp(stamp),
                    priority: Priority(3),
                    span: Ticket(0),
                },
            },
            &mut fx,
        );
    }
    a.release(L, Ticket(1), &mut fx).unwrap();
    let first_token_to = fx.drain().find_map(|e| match e {
        Effect::Send { to, message } if matches!(message.payload, Payload::Token { .. }) => {
            Some(to)
        }
        _ => None,
    });
    assert_eq!(first_token_to, Some(NodeId(1)), "FIFO within equal priority");
}

#[test]
fn priority_zero_is_plain_fifo() {
    // Sanity: with all-NORMAL priorities, behavior equals the default
    // request() path (same grants, same order).
    let cfg = ProtocolConfig::default();
    let mut a = LockSpace::new(NodeId(0), 1, NodeId(0), cfg);
    let mut b = LockSpace::new(NodeId(0), 1, NodeId(0), cfg);
    let mut fxa = EffectSink::new();
    let mut fxb = EffectSink::new();
    a.request(L, Mode::Read, Ticket(1), &mut fxa).unwrap();
    b.request_with_priority(L, Mode::Read, Ticket(1), Priority::NORMAL, &mut fxb).unwrap();
    assert_eq!(fxa.as_slice(), fxb.as_slice());
    assert_eq!(a.lock_state(L), b.lock_state(L));
}

#[test]
fn urgent_writer_jumps_reader_backlog() {
    // Token owns IW via a child; queue: many NORMAL R requests, then one
    // URGENT W. On drain, the W is served before every queued R.
    let cfg = ProtocolConfig::default();
    let mut a = LockSpace::new(NodeId(0), 1, NodeId(0), cfg);
    let mut fx = EffectSink::new();
    a.request(L, Mode::IntentWrite, Ticket(1), &mut fx).unwrap();
    fx.drain().count();
    for n in 1..=3u32 {
        a.on_message(
            NodeId(n),
            Envelope {
                lock: L,
                payload: Payload::Request {
                    origin: NodeId(n),
                    mode: Mode::Read,
                    stamp: Stamp(u64::from(n)),
                    priority: Priority::NORMAL,
                    span: Ticket(0),
                },
            },
            &mut fx,
        );
    }
    a.on_message(
        NodeId(7),
        Envelope {
            lock: L,
            payload: Payload::Request {
                origin: NodeId(7),
                mode: Mode::Write,
                stamp: Stamp(99),
                priority: Priority::URGENT,
                span: Ticket(0),
            },
        },
        &mut fx,
    );
    fx.drain().count();
    a.release(L, Ticket(1), &mut fx).unwrap();
    let first_service_to = fx.drain().find_map(|e| match e {
        Effect::Send { to, message }
            if matches!(message.payload, Payload::Token { .. } | Payload::Grant { .. }) =>
        {
            Some(to)
        }
        _ => None,
    });
    assert_eq!(first_service_to, Some(NodeId(7)), "urgent W jumps the reader backlog");
}
