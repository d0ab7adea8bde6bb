//! A file the pass accepts: a `Wire` round-trip with only checked
//! access on the decode path.

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
