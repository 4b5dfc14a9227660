//! S002 fixture: every draw site inventoried with a review reason.

pub struct Node {
    rng: Rng,
}

impl Node {
    fn nonce(&mut self) -> u64 {
        self.rng.gen()
    }
}
