//! The command algebra.
//!
//! Commands must be *unique* (paper: "which can be easily done by
//! tagging it with the identifier of the client and a sequence number")
//! and commutative under set union. Reads are implemented as unique
//! `nop` commands that modify the replicated set like any command but
//! have no effect when the state is executed.

use bgla_codec::{CodecError, Reader, Wire, Writer};
use bgla_core::Value;

/// The operation payload of a command.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// Add an amount to the replicated counter.
    Add(u64),
    /// Insert a string into the replicated grow-only set.
    Put(String),
    /// No effect on execution; used by reads (`nop_{c,r}` in Alg. 6).
    Nop,
}

/// A uniquely tagged command.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cmd {
    /// Issuing client id.
    pub client: u64,
    /// Per-client sequence number (uniqueness tag).
    pub seq: u64,
    /// The operation.
    pub op: Op,
}

impl Cmd {
    /// An application command.
    pub fn new(client: u64, seq: u64, op: Op) -> Cmd {
        Cmd { client, seq, op }
    }

    /// The unique `nop` for read `seq` of `client`.
    pub fn nop(client: u64, seq: u64) -> Cmd {
        Cmd {
            client,
            seq,
            op: Op::Nop,
        }
    }

    /// Whether this is a read marker.
    pub fn is_nop(&self) -> bool {
        matches!(self.op, Op::Nop)
    }
}

impl Value for Cmd {}

impl Wire for Cmd {
    fn encode(&self, w: &mut Writer) {
        w.var(self.client);
        w.var(self.seq);
        match &self.op {
            Op::Add(x) => {
                w.u8(0);
                w.var(*x);
            }
            Op::Put(s) => {
                w.u8(1);
                s.encode(w);
            }
            Op::Nop => w.u8(2),
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let client = r.var()?;
        let seq = r.var()?;
        let op = match r.u8()? {
            0 => Op::Add(r.var()?),
            1 => Op::Put(String::decode(r)?),
            2 => Op::Nop,
            _ => return Err(CodecError::Invalid("unknown Op tag")),
        };
        Ok(Cmd { client, seq, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_codec::encode_payload;

    #[test]
    fn commands_are_unique_by_tag() {
        let a = Cmd::new(1, 0, Op::Add(5));
        let b = Cmd::new(1, 1, Op::Add(5));
        assert_ne!(a, b);
    }

    #[test]
    fn nops_are_detectable() {
        assert!(Cmd::nop(1, 2).is_nop());
        assert!(!Cmd::new(1, 2, Op::Add(0)).is_nop());
    }

    #[test]
    fn encoding_is_injective_across_ops() {
        let a = encode_payload(&Cmd::new(1, 0, Op::Add(2)));
        let b = encode_payload(&Cmd::new(1, 0, Op::Put("2".into())));
        let c = encode_payload(&Cmd::nop(1, 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
