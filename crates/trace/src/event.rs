//! Typed trace events and their JSONL encoding.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

/// The class of operation a transaction performs, mirroring the
/// protocol's `TxnKind` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A read miss.
    Read,
    /// A write miss (needs data and ownership).
    WriteMiss,
    /// An invalidating upgrade of a valid non-writable copy.
    WriteHit,
}

impl OpClass {
    fn code(self) -> &'static str {
        match self {
            OpClass::Read => "rd",
            OpClass::WriteMiss => "wm",
            OpClass::WriteHit => "wh",
        }
    }

    fn from_code(s: &str) -> Option<Self> {
        match s {
            "rd" => Some(OpClass::Read),
            "wm" => Some(OpClass::WriteMiss),
            "wh" => Some(OpClass::WriteHit),
            _ => None,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpClass::Read => f.write_str("Read"),
            OpClass::WriteMiss => f.write_str("WriteMiss"),
            OpClass::WriteHit => f.write_str("WriteHit"),
        }
    }
}

/// The class of an injected delivery fault, mirroring the network
/// layer's `FaultKind` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Extra per-message link latency.
    Jitter,
    /// Extra delivery delay of an unordered (non-ring) message.
    Reorder,
    /// A duplicated point-to-point delivery.
    Duplicate,
    /// A transient link congestion burst.
    Congestion,
    /// A wire frame dropped by a lossy link (reliability sublayer will
    /// retransmit it).
    Drop,
    /// A wire frame dropped because its link was inside a scheduled
    /// outage window.
    Outage,
}

impl FaultClass {
    fn code(self) -> &'static str {
        match self {
            FaultClass::Jitter => "jit",
            FaultClass::Reorder => "ro",
            FaultClass::Duplicate => "dup",
            FaultClass::Congestion => "cong",
            FaultClass::Drop => "drop",
            FaultClass::Outage => "out",
        }
    }

    fn from_code(s: &str) -> Option<Self> {
        match s {
            "jit" => Some(FaultClass::Jitter),
            "ro" => Some(FaultClass::Reorder),
            "dup" => Some(FaultClass::Duplicate),
            "cong" => Some(FaultClass::Congestion),
            "drop" => Some(FaultClass::Drop),
            "out" => Some(FaultClass::Outage),
            _ => None,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::Jitter => f.write_str("jitter"),
            FaultClass::Reorder => f.write_str("reorder"),
            FaultClass::Duplicate => f.write_str("duplicate"),
            FaultClass::Congestion => f.write_str("congestion"),
            FaultClass::Drop => f.write_str("drop"),
            FaultClass::Outage => f.write_str("outage"),
        }
    }
}

/// A protocol-level error an agent recovered from instead of panicking
/// (the hardened hot paths under fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// An MSHR allocation failed although capacity was checked.
    MshrOverflow,
    /// A ready LTT slot vanished between selection and take.
    LttSlotMissing,
    /// A ready LTT slot carried no combined response.
    LttResponseMissing,
    /// A transition-table lookup found no unique row for a
    /// `state × message` pair (only possible with a mutated table).
    TableMiss,
    /// A multicast tree edge departed a node the broadcast had not
    /// reached yet (only possible with a corrupted tree).
    MulticastTreeDisorder,
}

impl ErrorClass {
    fn code(self) -> &'static str {
        match self {
            ErrorClass::MshrOverflow => "mshr_overflow",
            ErrorClass::LttSlotMissing => "ltt_slot_missing",
            ErrorClass::LttResponseMissing => "ltt_resp_missing",
            ErrorClass::TableMiss => "table_miss",
            ErrorClass::MulticastTreeDisorder => "mcast_tree_disorder",
        }
    }

    fn from_code(s: &str) -> Option<Self> {
        match s {
            "mshr_overflow" => Some(ErrorClass::MshrOverflow),
            "ltt_slot_missing" => Some(ErrorClass::LttSlotMissing),
            "ltt_resp_missing" => Some(ErrorClass::LttResponseMissing),
            "table_miss" => Some(ErrorClass::TableMiss),
            "mcast_tree_disorder" => Some(ErrorClass::MulticastTreeDisorder),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// What travels on a ring hop: a snoop request `R` or a combined
/// response `r` with its marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A snoop request.
    Request {
        /// Operation class of the request.
        op: OpClass,
    },
    /// A combined snoop response.
    Response {
        /// `true` for `r+` (a supplier was found).
        positive: bool,
        /// Squash mark (lost a collision).
        squashed: bool,
        /// Loser Hint mark (Uncorq forced serialization).
        loser_hint: bool,
        /// Number of snoop outcomes combined so far.
        outcomes: u32,
    },
}

/// What happened; one variant per event in the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A requester issued (or re-issued) a transaction.
    RequestIssue {
        /// Operation class.
        op: OpClass,
        /// `true` when this is a retry of a squashed attempt.
        retry: bool,
    },
    /// A node forwarded a ring message to its ring successor.
    RingSend {
        /// The successor node receiving the hop.
        to: u32,
        /// Request or response payload.
        payload: Payload,
    },
    /// A ring message arrived at a node.
    RingRecv {
        /// Request or response payload.
        payload: Payload,
    },
    /// An Uncorq read request was multicast over the unconstrained
    /// network instead of the ring.
    MulticastRequest {
        /// Operation class.
        op: OpClass,
    },
    /// A node performed a snoop for a transaction.
    SnoopPerform {
        /// `true` when the snoop found a supplier copy here.
        positive: bool,
    },
    /// A node skipped a snoop (Flexible Snooping filters).
    SnoopSkip,
    /// A transaction entered a node's Local Transaction Table.
    LttInsert {
        /// Table occupancy after the insert.
        occupancy: u32,
    },
    /// A transaction left a node's Local Transaction Table.
    LttRemove {
        /// Table occupancy after the removal.
        occupancy: u32,
    },
    /// A combined response stalled in the LTT waiting for the local
    /// snoop (the Ordering invariant at work).
    LttStall,
    /// Two in-flight transactions on the same line collided at a node.
    Collision {
        /// Requester node of the other transaction.
        other_node: u32,
        /// Serial of the other transaction.
        other_serial: u64,
    },
    /// Winner selection resolved a collision.
    WinnerSelected {
        /// Requester node of the winning transaction.
        winner_node: u32,
        /// Serial of the winning transaction.
        winner_serial: u64,
    },
    /// A requester consumed its own combined response.
    ResponseConsume {
        /// `true` for `r+`.
        positive: bool,
        /// Squash mark observed.
        squashed: bool,
        /// Loser Hint mark observed.
        loser_hint: bool,
        /// Snoop outcomes combined.
        outcomes: u32,
    },
    /// Suppliership (and possibly data) was sent to a requester.
    Suppliership {
        /// The requester receiving suppliership.
        to: u32,
        /// Whether the line's data travels with the message.
        with_data: bool,
    },
    /// The node started a memory fetch for the line.
    MemFetch {
        /// `true` for controller-predicted prefetches.
        prefetch: bool,
    },
    /// A demand fetch was satisfied by the node's prefetch buffer.
    PrefetchHit,
    /// The node wrote the line back to memory.
    Writeback,
    /// Data (or ownership) arrived at the requester; the load can bind.
    Bound {
        /// L2-to-L2 latency in cycles.
        latency: u64,
        /// `true` for cache-to-cache transfers.
        c2c: bool,
    },
    /// The transaction completed at its requester.
    Complete {
        /// Operation class.
        op: OpClass,
        /// `true` for cache-to-cache service.
        c2c: bool,
        /// Issue-to-complete latency in cycles.
        latency: u64,
    },
    /// The transaction was squashed and a retry was scheduled.
    Retry {
        /// Delay until the retry in cycles.
        delay: u64,
    },
    /// A starving node reserved the next suppliership (SNID).
    Starvation {
        /// The starving node's ID.
        snid: u32,
    },
    /// Chaos mode injected a delivery fault (emitted at the send site so
    /// tracecheck can correlate violations with injected faults).
    FaultInjected {
        /// The class of fault.
        fault: FaultClass,
        /// Extra cycles the fault added (burst length for congestion).
        delay: u64,
    },
    /// An agent detected and recovered from a protocol-level error
    /// instead of panicking (hardened hot paths).
    ProtocolError {
        /// What went wrong.
        error: ErrorClass,
    },
    /// The reliability sublayer retransmitted an unacknowledged frame.
    Retransmit {
        /// Destination node of the frame.
        to: u32,
        /// Virtual-channel index of the flow.
        channel: u8,
        /// Flow sequence number of the retransmitted frame.
        seq: u64,
        /// Retransmission attempt (1 = first retransmit).
        attempt: u32,
    },
    /// A scheduled link outage began (the link drops everything until
    /// `up_at`).
    LinkDown {
        /// Link identifier (see `ring_noc::LinkId`).
        link: u32,
        /// Cycle at which the link comes back up.
        up_at: u64,
    },
    /// A scheduled link outage ended.
    LinkUp {
        /// Link identifier (see `ring_noc::LinkId`).
        link: u32,
    },
    /// The reliability sublayer handed a payload to the protocol layer:
    /// the exactly-once, in-order delivery boundary. `seq` must be
    /// exactly one past the previous delivery of the same
    /// `(from, node, channel)` flow.
    ReliableDeliver {
        /// Source node of the flow.
        from: u32,
        /// Virtual-channel index of the flow.
        channel: u8,
        /// Flow sequence number delivered.
        seq: u64,
    },
}

/// One structured protocol event.
///
/// `node` is where the event happened; `txn_node`/`txn_serial` identify
/// the transaction it belongs to (the requester node and its per-node
/// serial), and `line` is the cache line concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle of the event.
    pub cycle: u64,
    /// Node at which the event happened.
    pub node: u32,
    /// Requester node of the owning transaction.
    pub txn_node: u32,
    /// Per-requester serial of the owning transaction.
    pub txn_serial: u64,
    /// Raw line address the event concerns.
    pub line: u64,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    /// Human-readable one-liner, keeping the historical line-trace
    /// vocabulary (`fwd R`, `MCAST R`, `SUPPLIERSHIP`, `MEMFETCH`,
    /// `COMPLETE`, `RETRY`) so existing debug workflows keep working.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.cycle;
        let n = self.node;
        let txn = format_args!("{}.{}", self.txn_node, self.txn_serial);
        match self.kind {
            EventKind::RequestIssue { op, retry } => {
                write!(f, "t={t} n{n} ISSUE txn={txn} kind={op} retry={retry}")
            }
            EventKind::RingSend { to, payload } => match payload {
                Payload::Request { op } => {
                    write!(f, "t={t} n{n} fwd R -> n{to} txn={txn} kind={op}")
                }
                Payload::Response {
                    positive,
                    squashed,
                    loser_hint,
                    outcomes,
                } => write!(
                    f,
                    "t={t} n{n} fwd r -> n{to} txn={txn} {} sq={squashed} lh={loser_hint} outc={outcomes}",
                    if positive { "+" } else { "-" },
                ),
            },
            EventKind::RingRecv { payload } => match payload {
                Payload::Request { op } => {
                    write!(f, "t={t} n{n} recv R txn={txn} kind={op}")
                }
                Payload::Response {
                    positive,
                    squashed,
                    loser_hint,
                    outcomes,
                } => write!(
                    f,
                    "t={t} n{n} recv r txn={txn} {} sq={squashed} lh={loser_hint} outc={outcomes}",
                    if positive { "+" } else { "-" },
                ),
            },
            EventKind::MulticastRequest { op } => {
                write!(f, "t={t} n{n} MCAST R txn={txn} kind={op}")
            }
            EventKind::SnoopPerform { positive } => write!(
                f,
                "t={t} n{n} SNOOP txn={txn} {}",
                if positive { "+" } else { "-" }
            ),
            EventKind::SnoopSkip => write!(f, "t={t} n{n} SNOOP-SKIP txn={txn}"),
            EventKind::LttInsert { occupancy } => {
                write!(f, "t={t} n{n} LTT+ txn={txn} occ={occupancy}")
            }
            EventKind::LttRemove { occupancy } => {
                write!(f, "t={t} n{n} LTT- txn={txn} occ={occupancy}")
            }
            EventKind::LttStall => write!(f, "t={t} n{n} LTT-STALL txn={txn}"),
            EventKind::Collision {
                other_node,
                other_serial,
            } => write!(
                f,
                "t={t} n{n} COLLISION txn={txn} with {other_node}.{other_serial}"
            ),
            EventKind::WinnerSelected {
                winner_node,
                winner_serial,
            } => write!(
                f,
                "t={t} n{n} WINNER txn={txn} -> {winner_node}.{winner_serial}"
            ),
            EventKind::ResponseConsume {
                positive,
                squashed,
                loser_hint,
                outcomes,
            } => write!(
                f,
                "t={t} n{n} CONSUME r txn={txn} {} sq={squashed} lh={loser_hint} outc={outcomes}",
                if positive { "+" } else { "-" },
            ),
            EventKind::Suppliership { to, with_data } => write!(
                f,
                "t={t} n{n} SUPPLIERSHIP -> n{to} txn={txn} data={with_data}"
            ),
            EventKind::MemFetch { prefetch } => write!(
                f,
                "t={t} n{n} MEMFETCH ({})",
                if prefetch { "prefetch" } else { "demand" }
            ),
            EventKind::PrefetchHit => write!(f, "t={t} n{n} PREFETCH-HIT"),
            EventKind::Writeback => write!(f, "t={t} n{n} WRITEBACK"),
            EventKind::Bound { latency, c2c } => {
                write!(f, "t={t} n{n} BOUND txn={txn} lat={latency} c2c={c2c}")
            }
            EventKind::Complete { op, c2c, latency } => write!(
                f,
                "t={t} n{n} COMPLETE txn={txn} kind={op} c2c={c2c} lat={latency}"
            ),
            EventKind::Retry { delay } => {
                write!(f, "t={t} n{n} RETRY txn={txn} scheduled +{delay}")
            }
            EventKind::Starvation { snid } => {
                write!(f, "t={t} n{n} STARVE txn={txn} snid={snid}")
            }
            EventKind::FaultInjected { fault, delay } => {
                write!(f, "t={t} n{n} FAULT {fault} txn={txn} +{delay}")
            }
            EventKind::ProtocolError { error } => {
                write!(f, "t={t} n{n} PROTO-ERR {error} txn={txn}")
            }
            EventKind::Retransmit {
                to,
                channel,
                seq,
                attempt,
            } => write!(
                f,
                "t={t} n{n} RETX -> n{to} ch={channel} seq={seq} attempt={attempt}"
            ),
            EventKind::LinkDown { link, up_at } => {
                write!(f, "t={t} n{n} LINK-DOWN link={link} up_at={up_at}")
            }
            EventKind::LinkUp { link } => write!(f, "t={t} n{n} LINK-UP link={link}"),
            EventKind::ReliableDeliver { from, channel, seq } => {
                write!(f, "t={t} n{n} RDELIVER <- n{from} ch={channel} seq={seq}")
            }
        }
    }
}

/// An error parsing a JSONL trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Declares [`Key`], one variant per member name a trace line may carry.
macro_rules! trace_keys {
    ($($key:ident = $name:literal),* $(,)?) => {
        /// A member a trace line may carry. [`TraceEvent::from_jsonl`]
        /// files a line's members under their keys in one walk
        /// ([`Fields`]), so reading a field indexes an array instead of
        /// searching the object's map.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Key {
            $($key,)*
        }

        impl Key {
            /// Every key, in declaration order.
            const ALL: &'static [Key] = &[$(Key::$key,)*];
            /// The member name of each key, in declaration order.
            const NAMES: &'static [&'static str] = &[$($name,)*];
        }
    };
}

trace_keys! {
    T = "t",
    N = "n",
    Tn = "tn",
    Ts = "ts",
    Line = "line",
    Ev = "ev",
    Op = "op",
    Retry = "retry",
    To = "to",
    Pl = "pl",
    Pos = "pos",
    Sq = "sq",
    Lh = "lh",
    Outc = "outc",
    Occ = "occ",
    On = "on",
    Os = "os",
    Wn = "wn",
    Ws = "ws",
    Data = "data",
    Pref = "pref",
    Lat = "lat",
    C2c = "c2c",
    Delay = "delay",
    Snid = "snid",
    Fk = "fk",
    Code = "code",
    Ch = "ch",
    Seq = "seq",
    Att = "att",
    Link = "link",
    Up = "up",
    From = "from",
}

impl Key {
    /// Slots of [`Key::BY_HASH`].
    const SLOTS: usize = 128;

    /// [`Key::hash`] slot → index into [`Key::ALL`] (`u8::MAX` if none).
    /// Built at compile time; the build fails if two names share a slot.
    const BY_HASH: [u8; Self::SLOTS] = {
        let mut table = [u8::MAX; Self::SLOTS];
        let mut i = 0;
        while i < Self::NAMES.len() {
            let h = Self::hash(Self::NAMES[i].as_bytes());
            assert!(table[h] == u8::MAX, "two trace keys share a hash slot");
            table[h] = i as u8;
            i += 1;
        }
        table
    };

    /// A slot from a name's length and its first and last bytes, which
    /// differ between any two keys.
    const fn hash(name: &[u8]) -> usize {
        match name {
            [] => 0,
            [first, .., last] | [first @ last] => {
                (name.len() * 4 + *first as usize * 12 + *last as usize) % Self::SLOTS
            }
        }
    }

    /// The key named `name`, if a trace line may carry it.
    fn of(name: &str) -> Option<Key> {
        let i = Self::BY_HASH[Self::hash(name.as_bytes())] as usize;
        (i < Self::ALL.len() && Self::NAMES[i] == name).then(|| Self::ALL[i])
    }

    fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// The members of one trace line's object, by [`Key`]; members no key
/// names are ignored.
struct Fields<'a>([Option<&'a Json>; Key::ALL.len()]);

impl<'a> Fields<'a> {
    fn of(members: &'a BTreeMap<String, Json>) -> Self {
        let mut fields = [None; Key::ALL.len()];
        for (name, value) in members {
            if let Some(key) = Key::of(name) {
                fields[key as usize] = Some(value);
            }
        }
        Fields(fields)
    }
}

/// The value of `key` in a decoded trace line.
fn field<'a>(f: &Fields<'a>, key: Key) -> Result<&'a Json, ParseError> {
    f.0[key as usize].ok_or_else(|| err(format!("missing field '{}'", key.name())))
}

fn expected(key: Key, what: &str, got: &Json) -> ParseError {
    err(format!(
        "field '{}': expected {what}, got {}",
        key.name(),
        got.render()
    ))
}

/// An unsigned integer field, exactly as the writer prints them.
fn uint(f: &Fields<'_>, key: Key) -> Result<u64, ParseError> {
    match field(f, key)? {
        Json::Uint(n) => Ok(*n),
        other => Err(expected(key, "an unsigned integer", other)),
    }
}

/// An unsigned integer field that must fit a narrower type.
fn narrow<T: TryFrom<u64>>(f: &Fields<'_>, key: Key) -> Result<T, ParseError> {
    let n = uint(f, key)?;
    T::try_from(n).map_err(|_| {
        err(format!(
            "field '{}': {n} is out of range for {}",
            key.name(),
            std::any::type_name::<T>()
        ))
    })
}

fn flag(f: &Fields<'_>, key: Key) -> Result<bool, ParseError> {
    let v = field(f, key)?;
    v.as_bool().ok_or_else(|| expected(key, "a boolean", v))
}

fn text<'a>(f: &Fields<'a>, key: Key) -> Result<&'a str, ParseError> {
    let v = field(f, key)?;
    v.as_str().ok_or_else(|| expected(key, "a string", v))
}

fn op(f: &Fields<'_>, key: Key) -> Result<OpClass, ParseError> {
    let s = text(f, key)?;
    OpClass::from_code(s).ok_or_else(|| err(format!("bad op class '{s}'")))
}

impl Payload {
    fn encode(&self, out: &mut String) {
        match self {
            Payload::Request { op } => {
                out.push_str(",\"pl\":\"R\",\"op\":\"");
                out.push_str(op.code());
                out.push('"');
            }
            Payload::Response {
                positive,
                squashed,
                loser_hint,
                outcomes,
            } => {
                use std::fmt::Write;
                let _ = write!(
                    out,
                    ",\"pl\":\"r\",\"pos\":{positive},\"sq\":{squashed},\"lh\":{loser_hint},\"outc\":{outcomes}"
                );
            }
        }
    }

    fn decode(f: &Fields<'_>) -> Result<Self, ParseError> {
        match text(f, Key::Pl)? {
            "R" => Ok(Payload::Request {
                op: op(f, Key::Op)?,
            }),
            "r" => Ok(Payload::Response {
                positive: flag(f, Key::Pos)?,
                squashed: flag(f, Key::Sq)?,
                loser_hint: flag(f, Key::Lh)?,
                outcomes: narrow(f, Key::Outc)?,
            }),
            other => Err(err(format!("bad payload tag '{other}'"))),
        }
    }
}

impl TraceEvent {
    /// Tag string identifying the event kind in the JSONL encoding.
    pub fn tag(&self) -> &'static str {
        match self.kind {
            EventKind::RequestIssue { .. } => "issue",
            EventKind::RingSend { .. } => "ring_send",
            EventKind::RingRecv { .. } => "ring_recv",
            EventKind::MulticastRequest { .. } => "mcast",
            EventKind::SnoopPerform { .. } => "snoop",
            EventKind::SnoopSkip => "snoop_skip",
            EventKind::LttInsert { .. } => "ltt_insert",
            EventKind::LttRemove { .. } => "ltt_remove",
            EventKind::LttStall => "ltt_stall",
            EventKind::Collision { .. } => "collision",
            EventKind::WinnerSelected { .. } => "winner",
            EventKind::ResponseConsume { .. } => "consume",
            EventKind::Suppliership { .. } => "supply",
            EventKind::MemFetch { .. } => "mem_fetch",
            EventKind::PrefetchHit => "pref_hit",
            EventKind::Writeback => "writeback",
            EventKind::Bound { .. } => "bound",
            EventKind::Complete { .. } => "complete",
            EventKind::Retry { .. } => "retry",
            EventKind::Starvation { .. } => "starve",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::ProtocolError { .. } => "proto_err",
            EventKind::Retransmit { .. } => "retx",
            EventKind::LinkDown { .. } => "link_down",
            EventKind::LinkUp { .. } => "link_up",
            EventKind::ReliableDeliver { .. } => "rdeliver",
        }
    }

    /// Encodes the event as one JSON object on a single line, with a
    /// stable field order (so identical runs produce byte-identical
    /// traces).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"n\":{},\"tn\":{},\"ts\":{},\"line\":{},\"ev\":\"{}\"",
            self.cycle,
            self.node,
            self.txn_node,
            self.txn_serial,
            self.line,
            self.tag()
        );
        match self.kind {
            EventKind::RequestIssue { op, retry } => {
                let _ = write!(s, ",\"op\":\"{}\",\"retry\":{retry}", op.code());
            }
            EventKind::RingSend { to, payload } => {
                let _ = write!(s, ",\"to\":{to}");
                payload.encode(&mut s);
            }
            EventKind::RingRecv { payload } => payload.encode(&mut s),
            EventKind::MulticastRequest { op } => {
                let _ = write!(s, ",\"op\":\"{}\"", op.code());
            }
            EventKind::SnoopPerform { positive } => {
                let _ = write!(s, ",\"pos\":{positive}");
            }
            EventKind::SnoopSkip
            | EventKind::LttStall
            | EventKind::PrefetchHit
            | EventKind::Writeback => {}
            EventKind::LttInsert { occupancy } | EventKind::LttRemove { occupancy } => {
                let _ = write!(s, ",\"occ\":{occupancy}");
            }
            EventKind::Collision {
                other_node,
                other_serial,
            } => {
                let _ = write!(s, ",\"on\":{other_node},\"os\":{other_serial}");
            }
            EventKind::WinnerSelected {
                winner_node,
                winner_serial,
            } => {
                let _ = write!(s, ",\"wn\":{winner_node},\"ws\":{winner_serial}");
            }
            EventKind::ResponseConsume {
                positive,
                squashed,
                loser_hint,
                outcomes,
            } => {
                let _ = write!(
                    s,
                    ",\"pos\":{positive},\"sq\":{squashed},\"lh\":{loser_hint},\"outc\":{outcomes}"
                );
            }
            EventKind::Suppliership { to, with_data } => {
                let _ = write!(s, ",\"to\":{to},\"data\":{with_data}");
            }
            EventKind::MemFetch { prefetch } => {
                let _ = write!(s, ",\"pref\":{prefetch}");
            }
            EventKind::Bound { latency, c2c } => {
                let _ = write!(s, ",\"lat\":{latency},\"c2c\":{c2c}");
            }
            EventKind::Complete { op, c2c, latency } => {
                let _ = write!(
                    s,
                    ",\"op\":\"{}\",\"c2c\":{c2c},\"lat\":{latency}",
                    op.code()
                );
            }
            EventKind::Retry { delay } => {
                let _ = write!(s, ",\"delay\":{delay}");
            }
            EventKind::Starvation { snid } => {
                let _ = write!(s, ",\"snid\":{snid}");
            }
            EventKind::FaultInjected { fault, delay } => {
                let _ = write!(s, ",\"fk\":\"{}\",\"delay\":{delay}", fault.code());
            }
            EventKind::ProtocolError { error } => {
                let _ = write!(s, ",\"code\":\"{}\"", error.code());
            }
            EventKind::Retransmit {
                to,
                channel,
                seq,
                attempt,
            } => {
                let _ = write!(
                    s,
                    ",\"to\":{to},\"ch\":{channel},\"seq\":{seq},\"att\":{attempt}"
                );
            }
            EventKind::LinkDown { link, up_at } => {
                let _ = write!(s, ",\"link\":{link},\"up\":{up_at}");
            }
            EventKind::LinkUp { link } => {
                let _ = write!(s, ",\"link\":{link}");
            }
            EventKind::ReliableDeliver { from, channel, seq } => {
                let _ = write!(s, ",\"from\":{from},\"ch\":{channel},\"seq\":{seq}");
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL trace line.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed or
    /// missing field.
    pub fn from_jsonl(line: &str) -> Result<Self, ParseError> {
        let v = Json::parse(line).map_err(|e| err(format!("not JSON: {e}")))?;
        let Json::Obj(members) = &v else {
            return Err(err("not an object"));
        };
        let f = &Fields::of(members);
        let kind = match text(f, Key::Ev)? {
            "issue" => EventKind::RequestIssue {
                op: op(f, Key::Op)?,
                retry: flag(f, Key::Retry)?,
            },
            "ring_send" => EventKind::RingSend {
                to: narrow(f, Key::To)?,
                payload: Payload::decode(f)?,
            },
            "ring_recv" => EventKind::RingRecv {
                payload: Payload::decode(f)?,
            },
            "mcast" => EventKind::MulticastRequest {
                op: op(f, Key::Op)?,
            },
            "snoop" => EventKind::SnoopPerform {
                positive: flag(f, Key::Pos)?,
            },
            "snoop_skip" => EventKind::SnoopSkip,
            "ltt_insert" => EventKind::LttInsert {
                occupancy: narrow(f, Key::Occ)?,
            },
            "ltt_remove" => EventKind::LttRemove {
                occupancy: narrow(f, Key::Occ)?,
            },
            "ltt_stall" => EventKind::LttStall,
            "collision" => EventKind::Collision {
                other_node: narrow(f, Key::On)?,
                other_serial: uint(f, Key::Os)?,
            },
            "winner" => EventKind::WinnerSelected {
                winner_node: narrow(f, Key::Wn)?,
                winner_serial: uint(f, Key::Ws)?,
            },
            "consume" => EventKind::ResponseConsume {
                positive: flag(f, Key::Pos)?,
                squashed: flag(f, Key::Sq)?,
                loser_hint: flag(f, Key::Lh)?,
                outcomes: narrow(f, Key::Outc)?,
            },
            "supply" => EventKind::Suppliership {
                to: narrow(f, Key::To)?,
                with_data: flag(f, Key::Data)?,
            },
            "mem_fetch" => EventKind::MemFetch {
                prefetch: flag(f, Key::Pref)?,
            },
            "pref_hit" => EventKind::PrefetchHit,
            "writeback" => EventKind::Writeback,
            "bound" => EventKind::Bound {
                latency: uint(f, Key::Lat)?,
                c2c: flag(f, Key::C2c)?,
            },
            "complete" => EventKind::Complete {
                op: op(f, Key::Op)?,
                c2c: flag(f, Key::C2c)?,
                latency: uint(f, Key::Lat)?,
            },
            "retry" => EventKind::Retry {
                delay: uint(f, Key::Delay)?,
            },
            "starve" => EventKind::Starvation {
                snid: narrow(f, Key::Snid)?,
            },
            "fault" => {
                let code = text(f, Key::Fk)?;
                EventKind::FaultInjected {
                    fault: FaultClass::from_code(code)
                        .ok_or_else(|| err(format!("bad fault class '{code}'")))?,
                    delay: uint(f, Key::Delay)?,
                }
            }
            "proto_err" => {
                let code = text(f, Key::Code)?;
                EventKind::ProtocolError {
                    error: ErrorClass::from_code(code)
                        .ok_or_else(|| err(format!("bad error class '{code}'")))?,
                }
            }
            "retx" => EventKind::Retransmit {
                to: narrow(f, Key::To)?,
                channel: narrow(f, Key::Ch)?,
                seq: uint(f, Key::Seq)?,
                attempt: narrow(f, Key::Att)?,
            },
            "link_down" => EventKind::LinkDown {
                link: narrow(f, Key::Link)?,
                up_at: uint(f, Key::Up)?,
            },
            "link_up" => EventKind::LinkUp {
                link: narrow(f, Key::Link)?,
            },
            "rdeliver" => EventKind::ReliableDeliver {
                from: narrow(f, Key::From)?,
                channel: narrow(f, Key::Ch)?,
                seq: uint(f, Key::Seq)?,
            },
            other => return Err(err(format!("unknown event tag '{other}'"))),
        };
        Ok(TraceEvent {
            cycle: uint(f, Key::T)?,
            node: narrow(f, Key::N)?,
            txn_node: narrow(f, Key::Tn)?,
            txn_serial: uint(f, Key::Ts)?,
            line: uint(f, Key::Line)?,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_is_found_by_its_name_only() {
        for (i, &key) in Key::ALL.iter().enumerate() {
            assert_eq!(key as usize, i);
            assert_eq!(Key::of(key.name()), Some(key));
        }
        for name in ["", "x", "tt", "lin", "lines", "eV", "retr", "c2", "from "] {
            assert_eq!(Key::of(name), None, "{name:?}");
        }
    }

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle: 1234,
            node: 5,
            txn_node: 5,
            txn_serial: 42,
            line: 0x1f80,
            kind,
        }
    }

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::RequestIssue {
                op: OpClass::Read,
                retry: false,
            },
            EventKind::RequestIssue {
                op: OpClass::WriteHit,
                retry: true,
            },
            EventKind::RingSend {
                to: 6,
                payload: Payload::Request { op: OpClass::Read },
            },
            EventKind::RingSend {
                to: 6,
                payload: Payload::Response {
                    positive: true,
                    squashed: false,
                    loser_hint: true,
                    outcomes: 17,
                },
            },
            EventKind::RingRecv {
                payload: Payload::Response {
                    positive: false,
                    squashed: true,
                    loser_hint: false,
                    outcomes: 63,
                },
            },
            EventKind::MulticastRequest {
                op: OpClass::WriteMiss,
            },
            EventKind::SnoopPerform { positive: true },
            EventKind::SnoopSkip,
            EventKind::LttInsert { occupancy: 3 },
            EventKind::LttRemove { occupancy: 2 },
            EventKind::LttStall,
            EventKind::Collision {
                other_node: 9,
                other_serial: 100,
            },
            EventKind::WinnerSelected {
                winner_node: 5,
                winner_serial: 42,
            },
            EventKind::ResponseConsume {
                positive: true,
                squashed: false,
                loser_hint: false,
                outcomes: 64,
            },
            EventKind::Suppliership {
                to: 11,
                with_data: true,
            },
            EventKind::MemFetch { prefetch: false },
            EventKind::MemFetch { prefetch: true },
            EventKind::PrefetchHit,
            EventKind::Writeback,
            EventKind::Bound {
                latency: 88,
                c2c: true,
            },
            EventKind::Complete {
                op: OpClass::Read,
                c2c: false,
                latency: 412,
            },
            EventKind::Retry { delay: 200 },
            EventKind::Starvation { snid: 7 },
            EventKind::FaultInjected {
                fault: FaultClass::Jitter,
                delay: 12,
            },
            EventKind::FaultInjected {
                fault: FaultClass::Reorder,
                delay: 80,
            },
            EventKind::FaultInjected {
                fault: FaultClass::Duplicate,
                delay: 31,
            },
            EventKind::FaultInjected {
                fault: FaultClass::Congestion,
                delay: 64,
            },
            EventKind::ProtocolError {
                error: ErrorClass::MshrOverflow,
            },
            EventKind::ProtocolError {
                error: ErrorClass::LttSlotMissing,
            },
            EventKind::ProtocolError {
                error: ErrorClass::LttResponseMissing,
            },
            EventKind::ProtocolError {
                error: ErrorClass::TableMiss,
            },
            EventKind::ProtocolError {
                error: ErrorClass::MulticastTreeDisorder,
            },
            EventKind::FaultInjected {
                fault: FaultClass::Drop,
                delay: 0,
            },
            EventKind::FaultInjected {
                fault: FaultClass::Outage,
                delay: 500,
            },
            EventKind::Retransmit {
                to: 3,
                channel: 1,
                seq: 977,
                attempt: 4,
            },
            EventKind::LinkDown {
                link: 17,
                up_at: 90_000,
            },
            EventKind::LinkUp { link: 17 },
            EventKind::ReliableDeliver {
                from: 12,
                channel: 2,
                seq: 4096,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_every_kind() {
        for kind in all_kinds() {
            let e = ev(kind);
            let line = e.to_jsonl();
            let back = TraceEvent::from_jsonl(&line)
                .unwrap_or_else(|err| panic!("parse failed for {line}: {err}"));
            assert_eq!(back, e, "roundtrip mismatch for {line}");
        }
    }

    #[test]
    fn jsonl_is_single_line_and_stable() {
        for kind in all_kinds() {
            let e = ev(kind);
            let a = e.to_jsonl();
            assert!(!a.contains('\n'));
            assert_eq!(a, e.to_jsonl(), "encoding must be deterministic");
        }
    }

    #[test]
    fn display_keeps_legacy_vocabulary() {
        let m = ev(EventKind::MulticastRequest { op: OpClass::Read });
        assert!(m.to_string().contains("MCAST R"));
        let s = ev(EventKind::Suppliership {
            to: 3,
            with_data: true,
        });
        assert!(s.to_string().contains("SUPPLIERSHIP"));
        let c = ev(EventKind::Complete {
            op: OpClass::Read,
            c2c: true,
            latency: 50,
        });
        assert!(c.to_string().contains("COMPLETE"));
        let f = ev(EventKind::MemFetch { prefetch: false });
        assert!(f.to_string().contains("MEMFETCH (demand)"));
        let r = ev(EventKind::Retry { delay: 10 });
        assert!(r.to_string().contains("RETRY"));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::from_jsonl("").is_err());
        assert!(TraceEvent::from_jsonl("{}").is_err());
        assert!(TraceEvent::from_jsonl("not json").is_err());
        assert!(TraceEvent::from_jsonl("{\"t\":1}").is_err());
        // unknown tag
        let bad = "{\"t\":1,\"n\":0,\"tn\":0,\"ts\":0,\"line\":0,\"ev\":\"nope\"}";
        assert!(TraceEvent::from_jsonl(bad).is_err());
    }

    #[test]
    fn parse_rejects_what_the_flat_scanner_accepted() {
        let head = r#"{"t":1,"n":0,"tn":0,"ts":0,"line":0,"ev":"snoop_skip""#;
        // A trailing comma.
        let err = TraceEvent::from_jsonl(&format!("{head},}}")).unwrap_err();
        assert!(err.0.contains("trailing comma"), "{err}");
        // A duplicate key: neither copy is silently kept.
        let err = TraceEvent::from_jsonl(&format!(r#"{head},"t":2}}"#)).unwrap_err();
        assert!(err.0.contains(r#"duplicate key "t""#), "{err}");
        // A node id past u32 no longer wraps to node 1.
        let line = format!("{head}}}").replace(r#""n":0"#, r#""n":4294967297"#);
        let err = TraceEvent::from_jsonl(&line).unwrap_err();
        assert!(
            err.0.contains("field 'n'") && err.0.contains("out of range"),
            "{err}"
        );
        // Integers only, named by field.
        let line = format!("{head}}}").replace(r#""t":1"#, r#""t":1.5"#);
        let err = TraceEvent::from_jsonl(&line).unwrap_err();
        assert!(err.0.contains("field 't'"), "{err}");
        let line = format!("{head}}}").replace(r#""line":0"#, r#""line":"0""#);
        let err = TraceEvent::from_jsonl(&line).unwrap_err();
        assert!(err.0.contains("field 'line'"), "{err}");
        // The untouched line decodes.
        assert!(TraceEvent::from_jsonl(&format!("{head}}}")).is_ok());
    }

    /// Decodes `e`'s JSONL line with `key`'s value replaced by `value`.
    fn with_field(e: &TraceEvent, key: &str, value: u64) -> Result<TraceEvent, ParseError> {
        let line = e.to_jsonl();
        let needle = format!("\"{key}\":");
        let at = line.find(&needle).expect("field present") + needle.len();
        let end = at + line[at..].find([',', '}']).expect("value ends");
        TraceEvent::from_jsonl(&format!("{}{value}{}", &line[..at], &line[end..]))
    }

    /// The widest value a narrow field holds decodes; one past it is a
    /// [`ParseError`] naming the field.
    fn assert_narrowing(kind: EventKind, key: &str, max: u64) {
        let e = ev(kind);
        assert!(
            with_field(&e, key, max).is_ok(),
            "{key} = {max} must decode"
        );
        let err = with_field(&e, key, max + 1).unwrap_err();
        assert!(
            err.0.contains(&format!("field '{key}'")) && err.0.contains("out of range"),
            "{key}: {err}"
        );
    }

    macro_rules! narrowing_tests {
        ($($name:ident: $key:literal of $kind:expr, max $max:expr;)*) => {$(
            #[test]
            fn $name() {
                assert_narrowing($kind, $key, u64::from($max));
            }
        )*};
    }

    const RETX: EventKind = EventKind::Retransmit {
        to: 3,
        channel: 1,
        seq: 977,
        attempt: 4,
    };

    narrowing_tests! {
        narrow_node: "n" of EventKind::SnoopSkip, max u32::MAX;
        narrow_txn_node: "tn" of EventKind::SnoopSkip, max u32::MAX;
        narrow_to: "to" of EventKind::Suppliership { to: 11, with_data: true }, max u32::MAX;
        narrow_occupancy: "occ" of EventKind::LttInsert { occupancy: 3 }, max u32::MAX;
        narrow_other_node: "on" of EventKind::Collision { other_node: 9, other_serial: 100 }, max u32::MAX;
        narrow_winner_node: "wn" of EventKind::WinnerSelected { winner_node: 5, winner_serial: 42 }, max u32::MAX;
        narrow_outcomes: "outc" of EventKind::RingRecv {
            payload: Payload::Response { positive: false, squashed: true, loser_hint: false, outcomes: 63 },
        }, max u32::MAX;
        narrow_snid: "snid" of EventKind::Starvation { snid: 7 }, max u32::MAX;
        narrow_channel: "ch" of RETX, max u8::MAX;
        narrow_attempt: "att" of RETX, max u32::MAX;
        narrow_link: "link" of EventKind::LinkUp { link: 17 }, max u32::MAX;
        narrow_from: "from" of EventKind::ReliableDeliver { from: 12, channel: 2, seq: 4096 }, max u32::MAX;
    }
}
