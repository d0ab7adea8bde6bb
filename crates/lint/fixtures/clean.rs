//! A file every pass accepts: a complete `Wire` round-trip, a total
//! `merge`, and only checked access on the decode path.

pub struct SignedAck {
    pub body: u64,
    pub signer: u64,
    pub sig: u64,
}

impl Wire for SignedAck {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.body);
        w.u64(self.signer);
        w.u64(self.sig);
    }
    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(SignedAck {
            body: r.u64()?,
            signer: r.u64()?,
            sig: r.u64()?,
        })
    }
}

pub struct Stats {
    pub acks: u64,
    pub nacks: u64,
}

impl Stats {
    pub fn merge(&mut self, other: &Stats) {
        self.acks += other.acks;
        self.nacks += other.nacks;
    }
}
