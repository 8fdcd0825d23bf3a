//! # hlock-app
//!
//! The paper's motivating application: a **multi-airline reservation
//! system** whose fare/seat table is shared by every node and protected
//! by hierarchical locks — the whole table by one lock, each entry by its
//! own lock. Built on the real TCP transport (`hlock-net`), so the exact
//! sans-I/O protocol used in the simulator arbitrates a real shared
//! store here.
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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hlock_core::LockSpace;
use hlock_core::{LockId, Mode, ProtocolConfig, Ticket};
use hlock_net::{Cluster, NetError, NodeHandle};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// One fare-table entry: a flight's price and remaining seats, plus the
/// repricing generation used to detect torn bulk updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Ticket price.
    pub fare: f64,
    /// Remaining seats.
    pub seats: u32,
    /// Bulk-repricing generation (bumped atomically for all entries).
    pub generation: u64,
}

/// The shared store (stands in for the cluster's shared database).
#[derive(Debug)]
struct Store {
    entries: Vec<Entry>,
}

/// Errors of the reservation application.
#[derive(Debug)]
pub enum AppError {
    /// Transport or protocol failure underneath.
    Net(NetError),
    /// No seats left on the requested flight.
    SoldOut {
        /// The fully-booked entry.
        entry: usize,
    },
    /// An entry index out of range.
    UnknownEntry {
        /// The offending index.
        entry: usize,
    },
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
/// hierarchical protocol plus the shared fare store.
#[allow(missing_debug_implementations)]
pub struct ReservationSystem {
    cluster: Cluster<LockSpace>,
    store: Arc<RwLock<Store>>,
    entries: usize,
    timeout: Duration,
}

impl ReservationSystem {
    /// Lock 0 guards the whole table.
    pub const TABLE_LOCK: LockId = LockId(0);

    /// Launches `nodes` nodes sharing a fare table of `entries` flights,
    /// each with the given initial fare and seat count.
    ///
    /// # Errors
    ///
    /// Any transport error during cluster setup.
    pub fn launch(
        nodes: usize,
        entries: usize,
        initial_fare: f64,
        initial_seats: u32,
    ) -> Result<ReservationSystem, AppError> {
        let cluster = Cluster::spawn_hierarchical(nodes, entries + 1, ProtocolConfig::default())?;
        let store = Arc::new(RwLock::new(Store {
            entries: vec![
                Entry { fare: initial_fare, seats: initial_seats, generation: 0 };
                entries
            ],
        }));
        Ok(ReservationSystem { cluster, store, entries, timeout: Duration::from_secs(30) })
    }

    /// Number of fare-table entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cluster.len()
    }

    /// The fare store, for reading. Poison is ignored, as it always was
    /// for this store: an agent that panics under the guard fails its own
    /// caller, and the other agents keep their view of the table.
    fn store(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fare store, for writing; poison-free like [`Self::store`].
    fn store_mut(&self) -> RwLockWriteGuard<'_, Store> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock guarding entry `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn entry_lock(&self, e: usize) -> LockId {
        assert!(e < self.entries);
        LockId(e as u32 + 1)
    }

    /// An agent bound to node `node` — the application's per-node API.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn agent(&self, node: usize) -> Agent<'_> {
        Agent { system: self, handle: self.cluster.node(node) }
    }

    /// Total protocol messages sent so far, by kind.
    pub fn message_stats(&self) -> std::collections::HashMap<hlock_core::MessageKind, u64> {
        self.cluster.message_stats()
    }

    /// Shuts the mesh down.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// A guard-style record of booked seats, returned by [`Agent::book_seat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Booking {
    /// Which entry was booked.
    pub entry: usize,
    /// Seats remaining after this booking.
    pub seats_left: u32,
}

/// Per-node application API.
#[allow(missing_debug_implementations)]
pub struct Agent<'a> {
    system: &'a ReservationSystem,
    handle: &'a NodeHandle<LockSpace>,
}

impl Agent<'_> {
    fn check_entry(&self, entry: usize) -> Result<(), AppError> {
        if entry >= self.system.entries {
            return Err(AppError::UnknownEntry { entry });
        }
        Ok(())
    }

    fn acquire(&self, lock: LockId, mode: Mode) -> Result<Ticket, AppError> {
        Ok(self.handle.acquire(lock, mode, self.system.timeout)?)
    }

    /// Reads one flight's fare (table `IR`, entry `R`).
    ///
    /// # Errors
    ///
    /// [`AppError::UnknownEntry`] or lock-service failures.
    pub fn query_fare(&self, entry: usize) -> Result<f64, AppError> {
        self.check_entry(entry)?;
        let t_table = self.acquire(ReservationSystem::TABLE_LOCK, Mode::IntentRead)?;
        let t_entry = self.acquire(self.system.entry_lock(entry), Mode::Read)?;
        let fare = self.system.store().entries[entry].fare;
        self.handle.release(self.system.entry_lock(entry), t_entry)?;
        self.handle.release(ReservationSystem::TABLE_LOCK, t_table)?;
        Ok(fare)
    }

    /// Sets one flight's fare (table `IW`, entry `W`).
    ///
    /// # Errors
    ///
    /// [`AppError::UnknownEntry`] or lock-service failures.
    pub fn update_fare(&self, entry: usize, fare: f64) -> Result<(), AppError> {
        self.check_entry(entry)?;
        let t_table = self.acquire(ReservationSystem::TABLE_LOCK, Mode::IntentWrite)?;
        let t_entry = self.acquire(self.system.entry_lock(entry), Mode::Write)?;
        self.system.store_mut().entries[entry].fare = fare;
        self.handle.release(self.system.entry_lock(entry), t_entry)?;
        self.handle.release(ReservationSystem::TABLE_LOCK, t_table)?;
        Ok(())
    }

    /// Books one seat using an upgrade lock (table `IW`, entry `U`→`W`):
    /// reads the seat count under `U`, upgrades atomically, then writes.
    ///
    /// # Errors
    ///
    /// [`AppError::SoldOut`] when no seats remain; lock-service failures.
    pub fn book_seat(&self, entry: usize) -> Result<Booking, AppError> {
        self.check_entry(entry)?;
        let lock = self.system.entry_lock(entry);
        let t_table = self.acquire(ReservationSystem::TABLE_LOCK, Mode::IntentWrite)?;
        let t_entry = self.acquire(lock, Mode::Upgrade)?;
        // Read phase (exclusive against other upgraders, shared with R).
        let seats = self.system.store().entries[entry].seats;
        if seats == 0 {
            self.handle.release(lock, t_entry)?;
            self.handle.release(ReservationSystem::TABLE_LOCK, t_table)?;
            return Err(AppError::SoldOut { entry });
        }
        // Upgrade and write: no other holder can sneak in between.
        self.handle.upgrade(lock, t_entry, self.system.timeout)?;
        let seats_left = {
            let mut store = self.system.store_mut();
            let e = &mut store.entries[entry];
            debug_assert!(e.seats > 0, "upgrade preserved the read");
            e.seats -= 1;
            e.seats
        };
        self.handle.release(lock, t_entry)?;
        self.handle.release(ReservationSystem::TABLE_LOCK, t_table)?;
        Ok(Booking { entry, seats_left })
    }

    /// Moves a booked seat from flight `from` to flight `to` atomically:
    /// both entry locks are taken in **ascending id order** (the classic
    /// deadlock-avoidance discipline for multi-granule transactions)
    /// under a single table `IW`.
    ///
    /// # Errors
    ///
    /// [`AppError::SoldOut`] if `to` has no seats (nothing is changed);
    /// [`AppError::UnknownEntry`] / lock-service failures.
    pub fn transfer_seat(&self, from: usize, to: usize) -> Result<(), AppError> {
        self.check_entry(from)?;
        self.check_entry(to)?;
        if from == to {
            return Ok(());
        }
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let t_table = self.acquire(ReservationSystem::TABLE_LOCK, Mode::IntentWrite)?;
        let t_lo = self.acquire(self.system.entry_lock(lo), Mode::Write)?;
        let t_hi = self.acquire(self.system.entry_lock(hi), Mode::Write)?;
        let moved = {
            let mut store = self.system.store_mut();
            if store.entries[to].seats == 0 {
                false
            } else {
                store.entries[to].seats -= 1;
                store.entries[from].seats += 1;
                true
            }
        };
        self.handle.release(self.system.entry_lock(hi), t_hi)?;
        self.handle.release(self.system.entry_lock(lo), t_lo)?;
        self.handle.release(ReservationSystem::TABLE_LOCK, t_table)?;
        if moved {
            Ok(())
        } else {
            Err(AppError::SoldOut { entry: to })
        }
    }

    /// Finds the cheapest flight under a whole-table read lock (`R`):
    /// the scan is consistent — no concurrent fare update can tear it.
    ///
    /// # Errors
    ///
    /// Lock-service failures.
    pub fn cheapest_flight(&self) -> Result<(usize, f64), AppError> {
        let t = self.acquire(ReservationSystem::TABLE_LOCK, Mode::Read)?;
        let best = {
            let store = self.system.store();
            store
                .entries
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.fare.total_cmp(&b.1.fare))
                .map(|(i, e)| (i, e.fare))
                .expect("table is nonempty")
        };
        self.handle.release(ReservationSystem::TABLE_LOCK, t)?;
        Ok(best)
    }

    /// Reads a consistent snapshot of the whole table (table `R`).
    ///
    /// # Errors
    ///
    /// Lock-service failures.
    pub fn snapshot(&self) -> Result<Vec<Entry>, AppError> {
        let t = self.acquire(ReservationSystem::TABLE_LOCK, Mode::Read)?;
        let entries = self.system.store().entries.clone();
        self.handle.release(ReservationSystem::TABLE_LOCK, t)?;
        Ok(entries)
    }

    /// Multiplies every fare by `factor`, atomically for the whole table
    /// (table `W`), bumping the repricing generation of every entry.
    ///
    /// # Errors
    ///
    /// Lock-service failures.
    pub fn bulk_reprice(&self, factor: f64) -> Result<(), AppError> {
        let t = self.acquire(ReservationSystem::TABLE_LOCK, Mode::Write)?;
        {
            let mut store = self.system.store_mut();
            for e in &mut store.entries {
                e.fare *= factor;
                e.generation += 1;
            }
        }
        self.handle.release(ReservationSystem::TABLE_LOCK, t)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

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
}
