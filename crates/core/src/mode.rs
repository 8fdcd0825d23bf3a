//! Lock modes and the paper's rule tables.
//!
//! This module is the data heart of the protocol: the five CORBA
//! Concurrency Service lock modes, their *compatibility* (Table 1(a)),
//! their *strength* order (Definition 1), the non-token *grant* legality
//! (Table 1(b) / Rule 3.1), the *queue-or-forward* decision (Table 2(a) /
//! Rule 4.1) and the *frozen-mode* sets (Table 2(b) / Rule 6).
//!
//! All tables are exposed both as predicate functions and as printable
//! matrices (see [`compatibility_table`] and friends) so the benchmark
//! harness can regenerate the paper's Tables 1 and 2 verbatim.

use core::fmt;

/// One of the five hierarchical lock modes of the CORBA Concurrency
/// Service (the paper's §3.1).
///
/// The "no lock" state `∅` is represented as `Option<Mode>::None` by the
/// owned-mode helpers ([`compatible_owned`], [`grantable`], …), matching
/// the `∅` rows of the paper's tables.
///
/// ```
/// use hlock_core::Mode;
/// assert!(Mode::IntentRead < Mode::Read);          // strength order
/// assert!(Mode::Read.compatible(Mode::Upgrade));   // Table 1(a)
/// assert!(!Mode::Upgrade.compatible(Mode::Upgrade));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Intention to read at a finer granularity (`IR`).
    IntentRead,
    /// Shared read (`R`).
    Read,
    /// Upgrade (`U`): an exclusive read that will later become a write.
    Upgrade,
    /// Intention to write at a finer granularity (`IW`).
    IntentWrite,
    /// Exclusive write (`W`).
    Write,
}

/// All five modes in strength order (weakest first).
pub const ALL_MODES: [Mode; 5] =
    [Mode::IntentRead, Mode::Read, Mode::Upgrade, Mode::IntentWrite, Mode::Write];

impl Mode {
    /// Strength per Definition 1: `∅ < IR < R < U = IW < W`.
    ///
    /// `∅` (no lock) has strength 0 and is handled by the `Option<Mode>`
    /// helpers. Note that `U` and `IW` have *equal* strength but are
    /// distinct modes.
    pub fn strength(self) -> u8 {
        match self {
            Mode::IntentRead => 1,
            Mode::Read => 2,
            Mode::Upgrade | Mode::IntentWrite => 3,
            Mode::Write => 4,
        }
    }

    /// Whether `self` is at least as strong as `other`.
    pub fn at_least(self, other: Mode) -> bool {
        self.strength() >= other.strength()
    }

    /// Table 1(a): may `self` and `other` be held concurrently?
    ///
    /// This is the standard multi-granularity matrix of the CORBA
    /// Concurrency Service the paper builds on (its references \[5\], \[6\]):
    /// compatibility is symmetric, `W` conflicts with everything,
    /// `IR` conflicts only with `W`.
    pub fn compatible(self, other: Mode) -> bool {
        use Mode::*;
        match (self, other) {
            (IntentRead, Write) | (Write, IntentRead) => false,
            (IntentRead, _) | (_, IntentRead) => true,
            (Read, Read) | (Read, Upgrade) | (Upgrade, Read) => true,
            (IntentWrite, IntentWrite) => true,
            _ => false,
        }
    }

    /// The intention mode required on a *coarser* granule before
    /// requesting `self` on a finer one (multi-granularity discipline):
    /// `IR` for read-like modes, `IW` for write-like modes.
    pub fn intention(self) -> Mode {
        match self {
            Mode::IntentRead | Mode::Read => Mode::IntentRead,
            Mode::Upgrade | Mode::IntentWrite | Mode::Write => Mode::IntentWrite,
        }
    }

    /// Short table symbol used when printing the paper's tables.
    pub fn symbol(self) -> &'static str {
        match self {
            Mode::IntentRead => "IR",
            Mode::Read => "R",
            Mode::Upgrade => "U",
            Mode::IntentWrite => "IW",
            Mode::Write => "W",
        }
    }

    /// Compact single-byte tag used by the wire codec.
    pub fn wire_tag(self) -> u8 {
        match self {
            Mode::IntentRead => 0,
            Mode::Read => 1,
            Mode::Upgrade => 2,
            Mode::IntentWrite => 3,
            Mode::Write => 4,
        }
    }

    /// Inverse of [`Mode::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<Mode> {
        Some(match tag {
            0 => Mode::IntentRead,
            1 => Mode::Read,
            2 => Mode::Upgrade,
            3 => Mode::IntentWrite,
            4 => Mode::Write,
            _ => return None,
        })
    }
}

impl PartialOrd for Mode {
    /// Partial order by strength; `U` and `IW` compare equal in strength
    /// but are different modes, so they are *incomparable* (`None`)
    /// unless identical.
    fn partial_cmp(&self, other: &Mode) -> Option<core::cmp::Ordering> {
        if self == other {
            return Some(core::cmp::Ordering::Equal);
        }
        match self.strength().cmp(&other.strength()) {
            core::cmp::Ordering::Equal => None,
            ord => Some(ord),
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Strength of an *owned* mode where `None` is `∅` (strength 0).
pub fn owned_strength(owned: Option<Mode>) -> u8 {
    owned.map_or(0, Mode::strength)
}

/// Table 1(a) extended with the `∅` row: `∅` is compatible with everything.
pub fn compatible_owned(owned: Option<Mode>, requested: Mode) -> bool {
    owned.is_none_or(|o| o.compatible(requested))
}

/// The stronger of two optional modes (by Definition 1 strength; ties keep
/// the first argument, which is correct because equal-strength modes only
/// matter for *strength* comparisons downstream).
pub fn stronger(a: Option<Mode>, b: Option<Mode>) -> Option<Mode> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(x), Some(y)) => {
            if y.strength() > x.strength() {
                Some(y)
            } else {
                Some(x)
            }
        }
    }
}

/// Rule 3.1 / Table 1(b): may a **non-token** node that *owns* `owned`
/// grant a request for `requested`?
///
/// Legal iff the modes are compatible **and** the owner's mode is at least
/// as strong: `compatible(owned, requested) ∧ owned ≥ requested`.
/// Consequently children can only ever grant `IR`, `R` and `IW`;
/// `U` and `W` requests always travel to the token node.
pub fn grantable(owned: Option<Mode>, requested: Mode) -> bool {
    match owned {
        None => false,
        Some(o) => o.compatible(requested) && o.at_least(requested),
    }
}

/// How the token node serves a request it can serve (operational part of
/// Rule 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenServe {
    /// `owned < requested`: the token itself moves to the requester, which
    /// becomes the new token node (and parent of the old token node).
    Transfer,
    /// `owned ≥ requested`: the requester receives a granted copy and
    /// becomes a child of the token node.
    Copy,
}

/// Decides transfer-vs-copy for a servable request (Rule 3.2).
///
/// Returns `None` when the request cannot be served at all (incompatible).
/// `U` and `IW` have equal strength; a request *equal* in strength to the
/// owned mode is copy-granted (the rule transfers only on `owned < requested`).
pub fn token_serve(owned: Option<Mode>, requested: Mode) -> Option<TokenServe> {
    if !compatible_owned(owned, requested) {
        return None;
    }
    if owned_strength(owned) < requested.strength() {
        Some(TokenServe::Transfer)
    } else {
        Some(TokenServe::Copy)
    }
}

/// Rule 4.1 / Table 2(a): when a non-token node with a pending request for
/// `pending` receives a request for `incoming` that it cannot grant, does
/// it **queue** the request locally (`true`) or **forward** it to its
/// parent (`false`)?
///
/// Derivation (see DESIGN.md — the scanned table is partially illegible):
/// the node queues exactly when it is *guaranteed* to be able to serve the
/// request later, namely when
///
/// * it will be able to copy-grant once its own pending mode is held
///   (`grantable(pending, incoming)`), or
/// * its pending mode is `U` or `W`. Such requests always receive the
///   *token* (no mode that is both ≥ `U`/`W` and compatible exists, so a
///   copy grant is impossible), hence the node will become the token node
///   and serve its queue under token rules, including freezing.
///
/// Everything else is forwarded so it reaches the token node, whose freeze
/// mechanism (Rule 6) guarantees FIFO fairness. With `pending = ∅` (no
/// pending request) every non-grantable request is forwarded.
pub fn queue_or_forward(pending: Option<Mode>, incoming: Mode) -> QueueDecision {
    let queue =
        grantable(pending, incoming) || matches!(pending, Some(Mode::Upgrade) | Some(Mode::Write));
    if queue {
        QueueDecision::Queue
    } else {
        QueueDecision::Forward
    }
}

/// Outcome of the Table 2(a) decision, see [`queue_or_forward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDecision {
    /// Absorb the request into the local queue (serve it later).
    Queue,
    /// Relay the request one hop toward the token node.
    Forward,
}

/// The set of modes a node owning `owned` could grant to a child
/// (the complement of an owned-mode row of Table 1(b)).
///
/// Used to decide which children are *potential granters* of a frozen
/// mode and therefore must be sent a freeze notification (the paper's
/// Figure 4, footnote a).
pub fn grantable_set(owned: Option<Mode>) -> ModeSet {
    ModeSet::from_modes(ALL_MODES.into_iter().filter(|m| grantable(owned, *m)))
}

/// May a held lock change from `old` to `new` without consulting anyone?
///
/// Safe iff `new` constrains concurrency no more than `old` did — every
/// mode compatible with `old` must also be compatible with `new` (the
/// compatibility set only widens). Locally checkable, so a *downgrade*
/// needs no messages beyond the usual owned-mode weakening release.
///
/// The resulting lattice of legal downgrades:
/// `W → {U, IW, R, IR}`, `U → {R, IR}`, `R → {IR}`, `IW → {IR}`.
///
/// ```
/// use hlock_core::{can_downgrade, Mode};
/// assert!(can_downgrade(Mode::Write, Mode::Read));
/// assert!(can_downgrade(Mode::Upgrade, Mode::Read));
/// assert!(!can_downgrade(Mode::Upgrade, Mode::IntentWrite)); // R-holders would break
/// assert!(!can_downgrade(Mode::Read, Mode::Write));
/// ```
pub fn can_downgrade(old: Mode, new: Mode) -> bool {
    if old == new {
        return true;
    }
    ALL_MODES.into_iter().all(|m| !m.compatible(old) || m.compatible(new))
}

/// Rule 6 / Table 2(b): the set of modes frozen while a request for
/// `waiting` sits in the token node's queue.
///
/// Freezing must stop *any* grant that could further delay the queued
/// request, so exactly the modes incompatible with it are frozen:
/// `frozen(M) = { m : ¬compatible(m, M) }`. This matches the paper's
/// worked example (an `R` request queued while the token owns `IW`
/// freezes `IW`) and its observation that at most five modes can be
/// frozen (for a waiting `W`).
pub fn frozen_modes(waiting: Mode) -> ModeSet {
    let mut set = ModeSet::EMPTY;
    for m in ALL_MODES {
        if !m.compatible(waiting) {
            set.insert(m);
        }
    }
    set
}

/// A small set of [`Mode`]s backed by a bit mask.
///
/// Used for frozen-mode bookkeeping and freeze/update messages.
///
/// ```
/// use hlock_core::{Mode, ModeSet};
/// let mut s = ModeSet::EMPTY;
/// s.insert(Mode::Write);
/// s.insert(Mode::Upgrade);
/// assert!(s.contains(Mode::Write));
/// assert!(!s.contains(Mode::Read));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.to_string(), "{U,W}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ModeSet(u8);

impl ModeSet {
    /// The empty set.
    pub const EMPTY: ModeSet = ModeSet(0);

    /// The set of all five modes.
    pub const ALL: ModeSet = ModeSet(0b1_1111);

    /// Builds a set from an iterator of modes.
    pub fn from_modes<I: IntoIterator<Item = Mode>>(modes: I) -> ModeSet {
        let mut s = ModeSet::EMPTY;
        for m in modes {
            s.insert(m);
        }
        s
    }

    /// Inserts a mode; returns `true` if it was newly inserted.
    pub fn insert(&mut self, m: Mode) -> bool {
        let bit = 1 << m.wire_tag();
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    /// Removes a mode; returns `true` if it was present.
    pub fn remove(&mut self, m: Mode) -> bool {
        let bit = 1 << m.wire_tag();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Membership test.
    pub fn contains(self, m: Mode) -> bool {
        self.0 & (1 << m.wire_tag()) != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: ModeSet) -> ModeSet {
        ModeSet(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn difference(self, other: ModeSet) -> ModeSet {
        ModeSet(self.0 & !other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: ModeSet) -> ModeSet {
        ModeSet(self.0 & other.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of modes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the members in strength order.
    pub fn iter(self) -> impl Iterator<Item = Mode> {
        ALL_MODES.into_iter().filter(move |m| self.contains(*m))
    }

    /// Raw bit mask (for the wire codec).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds a set from a raw bit mask, rejecting unknown bits.
    pub fn from_bits(bits: u8) -> Option<ModeSet> {
        if bits & !Self::ALL.0 != 0 {
            None
        } else {
            Some(ModeSet(bits))
        }
    }
}

impl fmt::Display for ModeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for m in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Mode> for ModeSet {
    fn from_iter<I: IntoIterator<Item = Mode>>(iter: I) -> Self {
        ModeSet::from_modes(iter)
    }
}

impl Extend<Mode> for ModeSet {
    fn extend<I: IntoIterator<Item = Mode>>(&mut self, iter: I) {
        for m in iter {
            self.insert(m);
        }
    }
}

/// Renders Table 1(a) (compatibility; `X` marks a conflict) as text.
pub fn compatibility_table() -> String {
    render_table("Table 1(a): incompatible mode pairs (X = conflict)", |o, r| {
        if compatible_owned(o, r) {
            " "
        } else {
            "X"
        }
    })
}

/// Renders Table 1(b) (non-token grant legality; `X` = may NOT grant).
pub fn child_grant_table() -> String {
    render_table("Table 1(b): owned modes that may NOT grant a child request (X)", |o, r| {
        if grantable(o, r) {
            " "
        } else {
            "X"
        }
    })
}

/// Renders Table 2(a) (queue `Q` vs forward `F` at a non-token node).
pub fn queue_forward_table() -> String {
    render_table("Table 2(a): queue (Q) or forward (F) at a non-token node", |p, r| {
        match queue_or_forward(p, r) {
            QueueDecision::Queue => "Q",
            QueueDecision::Forward => "F",
        }
    })
}

/// Renders Table 2(b) (frozen modes while a request waits at the token).
pub fn freeze_table() -> String {
    let mut out = String::from("Table 2(b): modes frozen while a request waits at the token\n");
    out.push_str("waiting | frozen\n");
    for m in ALL_MODES {
        out.push_str(&format!("{:>7} | {}\n", m.symbol(), frozen_modes(m)));
    }
    out
}

fn render_table(title: &str, cell: impl Fn(Option<Mode>, Mode) -> &'static str) -> String {
    let mut out = format!("{title}\nM1\\M2 |");
    for r in ALL_MODES {
        out.push_str(&format!(" {:>2} |", r.symbol()));
    }
    out.push('\n');
    let rows: [Option<Mode>; 6] = [
        None,
        Some(Mode::IntentRead),
        Some(Mode::Read),
        Some(Mode::Upgrade),
        Some(Mode::IntentWrite),
        Some(Mode::Write),
    ];
    for o in rows {
        let label = o.map_or("0", Mode::symbol);
        out.push_str(&format!("{label:>5} |"));
        for r in ALL_MODES {
            out.push_str(&format!(" {:>2} |", cell(o, r)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use Mode::*;

    /// Table 1(a) as stated by the CORBA CCS spec / Gray et al.
    #[test]
    fn compatibility_matrix_exact() {
        let expect = [
            // (a, b, compatible)
            (IntentRead, IntentRead, true),
            (IntentRead, Read, true),
            (IntentRead, Upgrade, true),
            (IntentRead, IntentWrite, true),
            (IntentRead, Write, false),
            (Read, Read, true),
            (Read, Upgrade, true),
            (Read, IntentWrite, false),
            (Read, Write, false),
            (Upgrade, Upgrade, false),
            (Upgrade, IntentWrite, false),
            (Upgrade, Write, false),
            (IntentWrite, IntentWrite, true),
            (IntentWrite, Write, false),
            (Write, Write, false),
        ];
        for (a, b, c) in expect {
            assert_eq!(a.compatible(b), c, "{a} vs {b}");
            assert_eq!(b.compatible(a), c, "symmetry {b} vs {a}");
        }
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in ALL_MODES {
            for b in ALL_MODES {
                assert_eq!(a.compatible(b), b.compatible(a));
            }
        }
    }

    /// Definition 1: ∅ < IR < R < U = IW < W.
    #[test]
    fn strength_order() {
        assert_eq!(owned_strength(None), 0);
        assert!(IntentRead.strength() < Read.strength());
        assert!(Read.strength() < Upgrade.strength());
        assert_eq!(Upgrade.strength(), IntentWrite.strength());
        assert!(IntentWrite.strength() < Write.strength());
    }

    /// Definition 1 says "stronger = compatible with fewer other modes";
    /// verify the strength order is consistent with that characterization.
    #[test]
    fn strength_consistent_with_compatibility_count() {
        let compat_count = |m: Mode| ALL_MODES.iter().filter(|o| m.compatible(**o)).count();
        for a in ALL_MODES {
            for b in ALL_MODES {
                if a.strength() > b.strength() {
                    assert!(
                        compat_count(a) <= compat_count(b),
                        "{a} stronger than {b} but more compatible"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_order_matches_strength() {
        assert!(IntentRead < Read);
        assert!(Read < Write);
        assert_eq!(Upgrade.partial_cmp(&IntentWrite), None);
        assert_eq!(Upgrade.partial_cmp(&Upgrade), Some(core::cmp::Ordering::Equal));
    }

    /// Table 1(b): children can grant only IR, R, IW; ∅ and W rows grant nothing.
    #[test]
    fn child_grant_matrix_exact() {
        // (owned, [grantable requested modes])
        let rows: [(Option<Mode>, &[Mode]); 6] = [
            (None, &[]),
            (Some(IntentRead), &[IntentRead]),
            (Some(Read), &[IntentRead, Read]),
            (Some(Upgrade), &[IntentRead, Read]),
            (Some(IntentWrite), &[IntentRead, IntentWrite]),
            (Some(Write), &[]),
        ];
        for (owned, legal) in rows {
            for r in ALL_MODES {
                assert_eq!(
                    grantable(owned, r),
                    legal.contains(&r),
                    "owned={owned:?} requested={r}"
                );
            }
        }
    }

    /// U and W can never be granted by a non-token node (they always
    /// travel to the token) — the premise behind Table 2(a)'s U/W rows.
    #[test]
    fn upgrade_and_write_always_reach_token() {
        for o in ALL_MODES {
            assert!(!grantable(Some(o), Upgrade));
            assert!(!grantable(Some(o), Write));
        }
        // ... and at the token they always cause a *transfer*:
        for o in ALL_MODES {
            if let Some(serve) = token_serve(Some(o), Upgrade) {
                assert_eq!(serve, TokenServe::Transfer);
            }
            if let Some(serve) = token_serve(Some(o), Write) {
                assert_eq!(serve, TokenServe::Transfer);
            }
        }
        assert_eq!(token_serve(None, Write), Some(TokenServe::Transfer));
    }

    /// Rule 3.2 operational: transfer iff owned < requested.
    #[test]
    fn token_serve_flavour() {
        assert_eq!(token_serve(None, IntentRead), Some(TokenServe::Transfer));
        assert_eq!(token_serve(Some(IntentRead), Read), Some(TokenServe::Transfer));
        assert_eq!(token_serve(Some(Read), Read), Some(TokenServe::Copy));
        assert_eq!(token_serve(Some(Upgrade), Read), Some(TokenServe::Copy));
        assert_eq!(token_serve(Some(IntentWrite), IntentWrite), Some(TokenServe::Copy));
        // Incompatible: cannot serve at all.
        assert_eq!(token_serve(Some(IntentWrite), Read), None);
        assert_eq!(token_serve(Some(Write), Read), None);
        assert_eq!(token_serve(Some(Upgrade), Upgrade), None);
    }

    /// Table 2(a) rows that are legible in the paper scan.
    #[test]
    fn queue_forward_matches_legible_rows() {
        use QueueDecision::*;
        // ∅ row: all forward.
        for r in ALL_MODES {
            assert_eq!(queue_or_forward(None, r), Forward);
        }
        // IR row: Q F F F F.
        assert_eq!(queue_or_forward(Some(IntentRead), IntentRead), Queue);
        for r in [Read, Upgrade, IntentWrite, Write] {
            assert_eq!(queue_or_forward(Some(IntentRead), r), Forward);
        }
        // W row: all queue.
        for r in ALL_MODES {
            assert_eq!(queue_or_forward(Some(Write), r), Queue);
        }
        // U row: all queue (pending U is guaranteed the token).
        for r in ALL_MODES {
            assert_eq!(queue_or_forward(Some(Upgrade), r), Queue);
        }
    }

    /// Derived rows: queue exactly when later service is guaranteed.
    #[test]
    fn queue_forward_derived_rows() {
        use QueueDecision::*;
        assert_eq!(queue_or_forward(Some(Read), IntentRead), Queue);
        assert_eq!(queue_or_forward(Some(Read), Read), Queue);
        assert_eq!(queue_or_forward(Some(Read), Upgrade), Forward);
        assert_eq!(queue_or_forward(Some(Read), IntentWrite), Forward);
        assert_eq!(queue_or_forward(Some(Read), Write), Forward);
        assert_eq!(queue_or_forward(Some(IntentWrite), IntentRead), Queue);
        assert_eq!(queue_or_forward(Some(IntentWrite), Read), Forward);
        assert_eq!(queue_or_forward(Some(IntentWrite), Upgrade), Forward);
        assert_eq!(queue_or_forward(Some(IntentWrite), IntentWrite), Queue);
        assert_eq!(queue_or_forward(Some(IntentWrite), Write), Forward);
    }

    /// Table 2(b): the paper's worked example — R queued at a token owning
    /// IW freezes IW — plus the full derived table.
    #[test]
    fn frozen_modes_table() {
        assert!(frozen_modes(Read).contains(IntentWrite)); // the Fig. 3 example
        assert_eq!(frozen_modes(IntentRead), ModeSet::from_modes([Write]));
        assert_eq!(frozen_modes(Read), ModeSet::from_modes([IntentWrite, Write]));
        assert_eq!(frozen_modes(Upgrade), ModeSet::from_modes([Upgrade, IntentWrite, Write]));
        assert_eq!(frozen_modes(IntentWrite), ModeSet::from_modes([Read, Upgrade, Write]));
        assert_eq!(frozen_modes(Write), ModeSet::ALL);
    }

    /// "There are a constant number of modes that can be frozen (at most five)."
    #[test]
    fn at_most_five_frozen() {
        for m in ALL_MODES {
            assert!(frozen_modes(m).len() <= 5);
        }
        assert_eq!(frozen_modes(Write).len(), 5);
    }

    #[test]
    fn intention_modes() {
        assert_eq!(Read.intention(), IntentRead);
        assert_eq!(IntentRead.intention(), IntentRead);
        assert_eq!(Write.intention(), IntentWrite);
        assert_eq!(Upgrade.intention(), IntentWrite);
        assert_eq!(IntentWrite.intention(), IntentWrite);
    }

    #[test]
    fn mode_set_basics() {
        let mut s = ModeSet::EMPTY;
        assert!(s.is_empty());
        assert!(s.insert(Read));
        assert!(!s.insert(Read));
        assert!(s.contains(Read));
        assert_eq!(s.len(), 1);
        assert!(s.remove(Read));
        assert!(!s.remove(Read));
        assert!(s.is_empty());
    }

    #[test]
    fn mode_set_algebra() {
        let a = ModeSet::from_modes([IntentRead, Read]);
        let b = ModeSet::from_modes([Read, Write]);
        assert_eq!(a.union(b), ModeSet::from_modes([IntentRead, Read, Write]));
        assert_eq!(a.intersection(b), ModeSet::from_modes([Read]));
        assert_eq!(a.difference(b), ModeSet::from_modes([IntentRead]));
        assert_eq!(ModeSet::ALL.len(), 5);
    }

    #[test]
    fn mode_set_iter_in_strength_order() {
        let s = ModeSet::from_modes([Write, IntentRead, Upgrade]);
        let v: Vec<Mode> = s.iter().collect();
        assert_eq!(v, vec![IntentRead, Upgrade, Write]);
    }

    #[test]
    fn mode_set_bits_roundtrip() {
        for bits in 0u8..=0b1_1111 {
            let s = ModeSet::from_bits(bits).unwrap();
            assert_eq!(s.bits(), bits);
        }
        assert_eq!(ModeSet::from_bits(0b10_0000), None);
    }

    #[test]
    fn mode_set_display() {
        assert_eq!(ModeSet::EMPTY.to_string(), "{}");
        assert_eq!(ModeSet::from_modes([IntentRead, Write]).to_string(), "{IR,W}");
    }

    #[test]
    fn wire_tags_roundtrip() {
        for m in ALL_MODES {
            assert_eq!(Mode::from_wire_tag(m.wire_tag()), Some(m));
        }
        assert_eq!(Mode::from_wire_tag(5), None);
    }

    #[test]
    fn stronger_picks_by_strength() {
        assert_eq!(stronger(None, Some(Read)), Some(Read));
        assert_eq!(stronger(Some(Read), None), Some(Read));
        assert_eq!(stronger(Some(Read), Some(Write)), Some(Write));
        assert_eq!(stronger(Some(Upgrade), Some(IntentWrite)), Some(Upgrade));
        assert_eq!(stronger(None, None), None);
    }

    #[test]
    fn printable_tables_contain_all_modes() {
        for table in
            [compatibility_table(), child_grant_table(), queue_forward_table(), freeze_table()]
        {
            for m in ALL_MODES {
                assert!(table.contains(m.symbol()), "{table}");
            }
        }
    }
}
