//! The paper's motivating application, live on a real TCP mesh: a
//! **multi-airline reservation system** whose fare/seat table is shared
//! by every node and protected by hierarchical locks — the whole table
//! by one lock, each entry by its own lock. Agents on different nodes
//! concurrently query fares, update fares, book seats (upgrade locks!),
//! move seats between flights and bulk-reprice the whole table, all
//! arbitrated by the same sans-I/O protocol the simulator runs, over
//! localhost sockets.
//!
//! ```text
//! cargo run --example airline_reservation
//! cargo test --example airline_reservation   # the application's tests
//! ```
//!
//! Operations and their locking plans:
//!
//! | operation | table lock | entry lock |
//! |---|---|---|
//! | [`Agent::query_fare`] | `IR` | `R` |
//! | [`Agent::update_fare`] | `IW` | `W` |
//! | [`Agent::book_seat`] | `IW` | `U` → upgrade → `W` |
//! | [`Agent::snapshot`] | `R` | — |
//! | [`Agent::bulk_reprice`] | `W` | — |
//! | [`Agent::cheapest_flight`] | `R` | — |
//! | [`Agent::transfer_seat`] | `IW` | `W` + `W` (ascending-id order) |
//!
//! `book_seat` demonstrates why upgrade locks exist: it reads the seat
//! count, decides, and then writes it back — under a plain `R` → `W`
//! re-acquisition two bookers could both see "1 seat left" and oversell;
//! the `U` mode excludes other upgraders from the start, and the upgrade
//! to `W` is atomic (Rule 7), so seats can never go negative.

use hlock::core::{LockId, LockSpace, MessageKind, Mode, ProtocolConfig, Ticket};
use hlock::net::{Cluster, NetError, NodeHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// One fare-table entry: a flight's price and remaining seats, plus the
/// repricing generation used to detect torn bulk updates.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// Ticket price.
    fare: f64,
    /// Remaining seats.
    seats: u32,
    /// Bulk-repricing generation (bumped atomically for all entries).
    generation: u64,
}

/// Errors of the reservation application.
#[derive(Debug)]
enum AppError {
    /// Transport or protocol failure underneath.
    Net(NetError),
    /// No seats left on the requested flight.
    SoldOut { entry: usize },
    /// An entry index out of range.
    UnknownEntry { entry: usize },
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Net(e) => write!(f, "lock service failure: {e}"),
            AppError::SoldOut { entry } => write!(f, "flight {entry} is sold out"),
            AppError::UnknownEntry { entry } => write!(f, "no such entry {entry}"),
        }
    }
}

impl std::error::Error for AppError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AppError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for AppError {
    fn from(e: NetError) -> Self {
        AppError::Net(e)
    }
}

/// The distributed reservation system: a TCP mesh of nodes running the
/// hierarchical protocol plus the shared fare store (which stands in for
/// the cluster's shared database).
struct ReservationSystem {
    cluster: Cluster<LockSpace>,
    store: RwLock<Vec<Entry>>,
    timeout: Duration,
}

impl ReservationSystem {
    /// Lock 0 guards the whole table.
    const TABLE_LOCK: LockId = LockId(0);

    /// Launches `nodes` nodes sharing a fare table of `entries` flights,
    /// each with the given initial fare and seat count.
    fn launch(
        nodes: usize,
        entries: usize,
        initial_fare: f64,
        initial_seats: u32,
    ) -> Result<ReservationSystem, AppError> {
        let cluster = Cluster::spawn_hierarchical(nodes, entries + 1, ProtocolConfig::default())?;
        let entry = Entry { fare: initial_fare, seats: initial_seats, generation: 0 };
        let store = RwLock::new(vec![entry; entries]);
        Ok(ReservationSystem { cluster, store, timeout: Duration::from_secs(30) })
    }

    /// Number of fare-table entries.
    fn entries(&self) -> usize {
        self.store().len()
    }

    /// Number of nodes.
    fn nodes(&self) -> usize {
        self.cluster.len()
    }

    /// The fare store, for reading. Poison is ignored: an agent that
    /// panics under the guard fails its own caller, and the other agents
    /// keep their view of the table.
    fn store(&self) -> RwLockReadGuard<'_, Vec<Entry>> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fare store, for writing; poison-free like [`Self::store`].
    fn store_mut(&self) -> RwLockWriteGuard<'_, Vec<Entry>> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock guarding entry `e`.
    fn entry_lock(&self, e: usize) -> LockId {
        assert!(e < self.entries());
        LockId(e as u32 + 1)
    }

    /// An agent bound to node `node` — the application's per-node API.
    fn agent(&self, node: usize) -> Agent<'_> {
        Agent { system: self, handle: self.cluster.node(node) }
    }

    /// Total protocol messages sent so far, by kind.
    fn message_stats(&self) -> HashMap<MessageKind, u64> {
        self.cluster.message_stats()
    }

    /// Shuts the mesh down.
    fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// A record of one booked seat, returned by [`Agent::book_seat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Booking {
    /// Which entry was booked.
    entry: usize,
    /// Seats remaining after this booking.
    seats_left: u32,
}

/// Per-node application API.
struct Agent<'a> {
    system: &'a ReservationSystem,
    handle: &'a NodeHandle<LockSpace>,
}

impl Agent<'_> {
    fn check_entry(&self, entry: usize) -> Result<(), AppError> {
        if entry >= self.system.entries() {
            return Err(AppError::UnknownEntry { entry });
        }
        Ok(())
    }

    /// Acquires `locks` in order, runs `body` with their tickets, and
    /// releases whatever was granted in reverse order — on every path:
    /// after `body`, after `body` fails, and after a later acquisition
    /// fails. A ticket left behind would be held at this node for good,
    /// and every conflicting request on that lock would time out.
    fn with_locks<T>(
        &self,
        locks: &[(LockId, Mode)],
        body: impl FnOnce(&[Ticket]) -> Result<T, AppError>,
    ) -> Result<T, AppError> {
        let mut held = Vec::with_capacity(locks.len());
        let mut acquired = Ok(());
        for &(lock, mode) in locks {
            match self.handle.acquire(lock, mode, self.system.timeout) {
                Ok(ticket) => held.push(ticket),
                Err(e) => {
                    acquired = Err(e.into());
                    break;
                }
            }
        }
        let outcome = acquired.and_then(|()| body(&held));
        let mut released = Ok(());
        for (&(lock, _), ticket) in locks.iter().zip(held).rev() {
            released = released.and(self.handle.release(lock, ticket));
        }
        let value = outcome?;
        released?;
        Ok(value)
    }

    /// Reads one flight's fare (table `IR`, entry `R`).
    fn query_fare(&self, entry: usize) -> Result<f64, AppError> {
        self.check_entry(entry)?;
        let locks = [
            (ReservationSystem::TABLE_LOCK, Mode::IntentRead),
            (self.system.entry_lock(entry), Mode::Read),
        ];
        self.with_locks(&locks, |_| Ok(self.system.store()[entry].fare))
    }

    /// Sets one flight's fare (table `IW`, entry `W`).
    fn update_fare(&self, entry: usize, fare: f64) -> Result<(), AppError> {
        self.check_entry(entry)?;
        let locks = [
            (ReservationSystem::TABLE_LOCK, Mode::IntentWrite),
            (self.system.entry_lock(entry), Mode::Write),
        ];
        self.with_locks(&locks, |_| {
            self.system.store_mut()[entry].fare = fare;
            Ok(())
        })
    }

    /// Books one seat using an upgrade lock (table `IW`, entry `U`→`W`):
    /// reads the seat count under `U`, upgrades atomically, then writes.
    /// [`AppError::SoldOut`] when no seats remain.
    fn book_seat(&self, entry: usize) -> Result<Booking, AppError> {
        self.check_entry(entry)?;
        let lock = self.system.entry_lock(entry);
        let locks = [(ReservationSystem::TABLE_LOCK, Mode::IntentWrite), (lock, Mode::Upgrade)];
        self.with_locks(&locks, |tickets| {
            // Read phase (exclusive against other upgraders, shared with R).
            if self.system.store()[entry].seats == 0 {
                return Err(AppError::SoldOut { entry });
            }
            // Upgrade and write: no other holder can sneak in between.
            self.handle.upgrade(lock, tickets[1], self.system.timeout)?;
            let mut store = self.system.store_mut();
            let e = &mut store[entry];
            debug_assert!(e.seats > 0, "upgrade preserved the read");
            e.seats -= 1;
            Ok(Booking { entry, seats_left: e.seats })
        })
    }

    /// Moves a booked seat from flight `from` to flight `to` atomically:
    /// both entry locks are taken in **ascending id order** (the classic
    /// deadlock-avoidance discipline for multi-granule transactions)
    /// under a single table `IW`. [`AppError::SoldOut`] if `to` has no
    /// seats (nothing is changed).
    fn transfer_seat(&self, from: usize, to: usize) -> Result<(), AppError> {
        self.check_entry(from)?;
        self.check_entry(to)?;
        if from == to {
            return Ok(());
        }
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let locks = [
            (ReservationSystem::TABLE_LOCK, Mode::IntentWrite),
            (self.system.entry_lock(lo), Mode::Write),
            (self.system.entry_lock(hi), Mode::Write),
        ];
        self.with_locks(&locks, |_| {
            let mut store = self.system.store_mut();
            if store[to].seats == 0 {
                return Err(AppError::SoldOut { entry: to });
            }
            store[to].seats -= 1;
            store[from].seats += 1;
            Ok(())
        })
    }

    /// Finds the cheapest flight under a whole-table read lock (`R`):
    /// the scan is consistent — no concurrent fare update can tear it.
    fn cheapest_flight(&self) -> Result<(usize, f64), AppError> {
        self.with_locks(&[(ReservationSystem::TABLE_LOCK, Mode::Read)], |_| {
            let store = self.system.store();
            let best = store.iter().enumerate().min_by(|a, b| a.1.fare.total_cmp(&b.1.fare));
            Ok(best.map(|(i, e)| (i, e.fare)).expect("table is nonempty"))
        })
    }

    /// Reads a consistent snapshot of the whole table (table `R`).
    fn snapshot(&self) -> Result<Vec<Entry>, AppError> {
        self.with_locks(&[(ReservationSystem::TABLE_LOCK, Mode::Read)], |_| {
            Ok(self.system.store().clone())
        })
    }

    /// Multiplies every fare by `factor`, atomically for the whole table
    /// (table `W`), bumping the repricing generation of every entry.
    fn bulk_reprice(&self, factor: f64) -> Result<(), AppError> {
        self.with_locks(&[(ReservationSystem::TABLE_LOCK, Mode::Write)], |_| {
            for e in self.system.store_mut().iter_mut() {
                e.fare *= factor;
                e.generation += 1;
            }
            Ok(())
        })
    }
}

fn main() {
    const NODES: usize = 5;
    const FLIGHTS: usize = 6;
    const SEATS: u32 = 8;

    let sys =
        Arc::new(ReservationSystem::launch(NODES, FLIGHTS, 100.0, SEATS).expect("cluster boots"));
    println!(
        "launched {} booking agents over TCP, {} flights × {SEATS} seats…",
        sys.nodes(),
        sys.entries()
    );

    // Every agent hammers the hot flight 0 plus a random other flight.
    let booked = Arc::new(AtomicU32::new(0));
    let denied = Arc::new(AtomicU32::new(0));
    let mut agents = Vec::new();
    for node in 0..NODES {
        let sys = Arc::clone(&sys);
        let booked = Arc::clone(&booked);
        let denied = Arc::clone(&denied);
        agents.push(std::thread::spawn(move || {
            let agent = sys.agent(node);
            for round in 0..4 {
                // Read a fare (table IR + entry R).
                let fare = agent.query_fare((node + round) % FLIGHTS).expect("query");
                assert!(fare > 0.0);
                // Book a seat on the hot flight (table IW + entry U→W).
                match agent.book_seat(0) {
                    Ok(b) => {
                        booked.fetch_add(1, Ordering::Relaxed);
                        println!(
                            "node {node}: booked flight {}, {} seats left",
                            b.entry, b.seats_left
                        );
                    }
                    Err(AppError::SoldOut { .. }) => {
                        denied.fetch_add(1, Ordering::Relaxed);
                        println!("node {node}: flight 0 sold out");
                    }
                    Err(e) => panic!("booking failed: {e}"),
                }
                // Occasionally reprice an entry (table IW + entry W).
                if round == 2 {
                    agent.update_fare(node % FLIGHTS, 90.0 + node as f64).expect("update");
                }
            }
        }));
    }
    // One concurrent bulk repricing (table W) while bookings run.
    {
        let sys = Arc::clone(&sys);
        agents.push(std::thread::spawn(move || {
            sys.agent(0).bulk_reprice(1.05).expect("bulk reprice");
            println!("node 0: bulk repriced the whole table by +5%");
        }));
    }
    for a in agents {
        a.join().expect("agent finished");
    }

    // Move a seat between two other flights (table IW + two entry W,
    // ascending order), then find the cheapest fare (table R).
    sys.agent(3).transfer_seat(FLIGHTS - 1, 1).expect("transfer");
    let (cheapest, fare) = sys.agent(2).cheapest_flight().expect("cheapest");
    println!("node 3: moved a seat from flight {} to flight 1", FLIGHTS - 1);
    println!("node 2: cheapest flight is {cheapest} at {fare:.2}");

    let snapshot = sys.agent(1).snapshot().expect("snapshot");
    let sold = SEATS - snapshot[0].seats;
    println!("\nfinal state of flight 0: {} seats left", snapshot[0].seats);
    println!(
        "bookings accepted: {}, denied: {}",
        booked.load(Ordering::Relaxed),
        denied.load(Ordering::Relaxed)
    );
    assert_eq!(
        booked.load(Ordering::Relaxed),
        sold,
        "upgrade locks prevented every lost update and oversale"
    );
    let gen = snapshot[0].generation;
    assert!(
        snapshot.iter().all(|e| e.generation == gen),
        "bulk repricing was atomic under table-level W"
    );

    println!("\nprotocol messages sent, by kind:");
    let mut stats: Vec<_> = sys.message_stats().into_iter().collect();
    stats.sort_by_key(|(k, _)| k.label());
    for (kind, count) in stats {
        if count > 0 {
            println!("  {kind:>8}: {count}");
        }
    }
    match Arc::try_unwrap(sys) {
        Ok(s) => s.shutdown(),
        Err(_) => unreachable!("all agents joined"),
    }
    println!("done.");
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: Duration = Duration::from_secs(30);

    #[test]
    fn query_and_update_fare() {
        let sys = ReservationSystem::launch(3, 4, 100.0, 5).unwrap();
        assert_eq!(sys.agent(1).query_fare(2).unwrap(), 100.0);
        sys.agent(2).update_fare(2, 150.0).unwrap();
        assert_eq!(sys.agent(0).query_fare(2).unwrap(), 150.0);
        assert_eq!(sys.entries(), 4);
        assert_eq!(sys.nodes(), 3);
        sys.shutdown();
    }

    #[test]
    fn unknown_entry_is_rejected() {
        let sys = ReservationSystem::launch(2, 2, 100.0, 5).unwrap();
        assert!(matches!(sys.agent(0).query_fare(9), Err(AppError::UnknownEntry { entry: 9 })));
        sys.shutdown();
    }

    #[test]
    fn booking_never_oversells() {
        // 4 nodes race to book 6 seats on one flight: exactly 6 succeed.
        let sys = Arc::new(ReservationSystem::launch(4, 1, 100.0, 6).unwrap());
        let booked = Arc::new(AtomicU32::new(0));
        let sold_out = Arc::new(AtomicU32::new(0));
        let mut joins = Vec::new();
        for node in 0..4 {
            let sys = sys.clone();
            let booked = booked.clone();
            let sold_out = sold_out.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..3 {
                    match sys.agent(node).book_seat(0) {
                        Ok(_) => {
                            booked.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(AppError::SoldOut { .. }) => {
                            sold_out.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(booked.load(Ordering::Relaxed), 6, "exactly the available seats sold");
        assert_eq!(sold_out.load(Ordering::Relaxed), 6);
        let snap = sys.agent(0).snapshot().unwrap();
        assert_eq!(snap[0].seats, 0);
        match Arc::try_unwrap(sys) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("threads joined"),
        }
    }

    #[test]
    fn transfer_seat_moves_exactly_one() {
        let sys = ReservationSystem::launch(2, 3, 100.0, 4).unwrap();
        sys.agent(0).transfer_seat(0, 2).unwrap();
        let snap = sys.agent(1).snapshot().unwrap();
        assert_eq!(snap[0].seats, 5);
        assert_eq!(snap[2].seats, 3);
        // Self-transfer is a no-op; transfer from a sold-out source is
        // still fine (seats move TO `from`).
        sys.agent(1).transfer_seat(1, 1).unwrap();
        assert!(matches!(
            sys.agent(0).transfer_seat(9, 0),
            Err(AppError::UnknownEntry { entry: 9 })
        ));
        sys.shutdown();
    }

    #[test]
    fn concurrent_transfers_conserve_seats() {
        // Opposite-direction transfers between the same two flights from
        // different nodes: ordered acquisition prevents deadlock, locks
        // prevent lost updates; total seats are conserved.
        let sys = Arc::new(ReservationSystem::launch(3, 2, 100.0, 10).unwrap());
        let mut joins = Vec::new();
        for node in 0..3 {
            let sys = Arc::clone(&sys);
            joins.push(std::thread::spawn(move || {
                for k in 0..4 {
                    let (from, to) = if (node + k) % 2 == 0 { (0, 1) } else { (1, 0) };
                    match sys.agent(node).transfer_seat(from, to) {
                        Ok(()) | Err(AppError::SoldOut { .. }) => {}
                        Err(e) => panic!("{e}"),
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = sys.agent(0).snapshot().unwrap();
        assert_eq!(snap[0].seats + snap[1].seats, 20, "seats conserved");
        match Arc::try_unwrap(sys) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("threads joined"),
        }
    }

    #[test]
    fn cheapest_flight_is_consistent() {
        let sys = ReservationSystem::launch(2, 4, 100.0, 5).unwrap();
        sys.agent(0).update_fare(2, 40.0).unwrap();
        assert_eq!(sys.agent(1).cheapest_flight().unwrap(), (2, 40.0));
        sys.shutdown();
    }

    #[test]
    fn bulk_reprice_is_atomic_under_snapshots() {
        let sys = Arc::new(ReservationSystem::launch(3, 8, 100.0, 5).unwrap());
        let stop = Arc::new(AtomicU32::new(0));
        let mut joins = Vec::new();
        // One node keeps repricing; two nodes keep snapshotting and
        // asserting that all generations are identical (never torn).
        {
            let sys = sys.clone();
            let stop = stop.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    sys.agent(0).bulk_reprice(1.1).unwrap();
                }
                stop.store(1, Ordering::Relaxed);
            }));
        }
        for node in 1..3 {
            let sys = sys.clone();
            let stop = stop.clone();
            joins.push(std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    let snap = sys.agent(node).snapshot().unwrap();
                    let g0 = snap[0].generation;
                    assert!(
                        snap.iter().all(|e| e.generation == g0),
                        "torn bulk reprice observed: {snap:?}"
                    );
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = sys.agent(1).snapshot().unwrap();
        assert_eq!(snap[0].generation, 5);
        assert!((snap[3].fare - 100.0 * 1.1f64.powi(5)).abs() < 1e-6);
        match Arc::try_unwrap(sys) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("threads joined"),
        }
    }

    #[test]
    fn reservation_app_end_to_end() {
        let sys = Arc::new(ReservationSystem::launch(3, 4, 200.0, 3).unwrap());
        // Fare queries from every node.
        for n in 0..3 {
            assert_eq!(sys.agent(n).query_fare(1).unwrap(), 200.0);
        }
        // Book all seats of entry 2 from different nodes.
        assert_eq!(sys.agent(0).book_seat(2).unwrap().seats_left, 2);
        assert_eq!(sys.agent(1).book_seat(2).unwrap().seats_left, 1);
        assert_eq!(sys.agent(2).book_seat(2).unwrap().seats_left, 0);
        assert!(matches!(sys.agent(0).book_seat(2), Err(AppError::SoldOut { entry: 2 })));
        // Bulk reprice and verify atomically-updated snapshot.
        sys.agent(1).bulk_reprice(0.5).unwrap();
        let snap = sys.agent(2).snapshot().unwrap();
        assert!(snap.iter().all(|e| (e.fare - 100.0).abs() < 1e-9));
        assert!(snap.iter().all(|e| e.generation == 1));
        match Arc::try_unwrap(sys) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("no other refs"),
        }
    }

    /// A failed acquisition gives back what the operation already held:
    /// a `query_fare` whose entry `R` times out behind a writer must not
    /// keep its table `IR`, or every later table `W` would time out too.
    #[test]
    fn a_timed_out_query_releases_its_table_intent() {
        let mut sys = ReservationSystem::launch(3, 2, 100.0, 5).unwrap();
        sys.timeout = Duration::from_millis(200);
        let writer = sys.agent(0).handle;
        let entry = sys.entry_lock(1);
        let table =
            writer.acquire(ReservationSystem::TABLE_LOCK, Mode::IntentWrite, TIMEOUT).unwrap();
        let held = writer.acquire(entry, Mode::Write, TIMEOUT).unwrap();

        let query = sys.agent(1).query_fare(1);
        assert!(matches!(query, Err(AppError::Net(NetError::Timeout { .. }))), "{query:?}");

        writer.release(entry, held).unwrap();
        writer.release(ReservationSystem::TABLE_LOCK, table).unwrap();
        sys.timeout = Duration::from_secs(5);
        sys.agent(2).bulk_reprice(2.0).expect("no ticket of the failed query is left behind");
        assert_eq!(sys.agent(1).query_fare(1).unwrap(), 200.0);
        sys.shutdown();
    }
}
