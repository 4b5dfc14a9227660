//! FNV-1a over a rep's simulated outcome. Two reps of one workload and
//! seed must agree on it bit for bit, traced or not.

use punch_net::SimStats;

pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Every deterministic engine counter (`busy_nanos` is host time).
    pub fn write_stats(&mut self, s: &SimStats) {
        for v in [
            s.events,
            s.packets_sent,
            s.packets_delivered,
            s.packets_lost,
            s.device_drops,
            s.link_down_drops,
            s.packets_duplicated,
            s.packets_reordered,
            s.packets_corrupted,
            s.packets_truncated,
            s.faults_injected,
        ] {
            self.write_u64(v);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
