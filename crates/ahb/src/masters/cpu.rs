//! Pseudo-random CPU-like master.
//!
//! Models the irregular side of SoC traffic: single loads/stores to a data
//! region, burst line fills from a code region (instruction fetch), occasional
//! locked read-modify-write sequences, and think-time gaps. The generator is a
//! self-contained xorshift64* PRNG so the crate stays dependency-free and every
//! run is reproducible from the seed.

use crate::engine::{BusOp, MasterEngine};
use crate::signals::{Hburst, Hsize, MasterSignals, MasterView};
use crate::AhbMaster;
use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter};

/// Behaviour knobs for [`CpuMaster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuProfile {
    /// Base of the code region (line fills come from here).
    pub code_base: u32,
    /// Size of the code region in bytes (power of two recommended).
    pub code_size: u32,
    /// Base of the data region (loads/stores go here).
    pub data_base: u32,
    /// Size of the data region in bytes.
    pub data_size: u32,
    /// Percent of operations that are line fills (INCR4 reads).
    pub fetch_pct: u8,
    /// Percent of operations that are stores (of the non-fetch remainder).
    pub store_pct: u8,
    /// Percent of operations that are locked read-modify-write pairs.
    pub rmw_pct: u8,
    /// Maximum think-time cycles between operations.
    pub max_think: u32,
}

impl Default for CpuProfile {
    fn default() -> Self {
        CpuProfile {
            code_base: 0x0000_0000,
            code_size: 0x1000,
            data_base: 0x0000_1000,
            data_size: 0x1000,
            fetch_pct: 40,
            store_pct: 30,
            rmw_pct: 5,
            max_think: 4,
        }
    }
}

/// A CPU-like master generating seeded pseudo-random traffic forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuMaster {
    profile: CpuProfile,
    rng: u64,
    think_left: u32,
    /// Second half of a read-modify-write (the write-back address).
    rmw_addr: Option<u32>,
    engine: MasterEngine,
    ops_issued: u64,
}

impl CpuMaster {
    /// Creates a CPU master from a seed and a traffic profile.
    ///
    /// # Panics
    ///
    /// Panics if the seed is zero (xorshift degenerates) or a region is empty.
    pub fn new(seed: u64, profile: CpuProfile) -> Self {
        assert!(seed != 0, "seed must be non-zero");
        assert!(
            profile.code_size >= 64 && profile.data_size >= 64,
            "regions too small"
        );
        CpuMaster {
            profile,
            rng: seed,
            think_left: 0,
            rmw_addr: None,
            engine: MasterEngine::new(),
            ops_issued: 0,
        }
    }

    /// Operations issued so far.
    pub fn ops_issued(&self) -> u64 {
        self.ops_issued
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick_op(&mut self) -> BusOp {
        // Pending RMW write-back takes precedence.
        if let Some(addr) = self.rmw_addr.take() {
            let value = (self.next_rand() & 0xffff_ffff) as u32;
            return BusOp::write_single(addr, value).locked();
        }
        let r = self.next_rand();
        let pct = (r % 100) as u8;
        let p = self.profile;
        if pct < p.fetch_pct {
            // Line fill: INCR4 word read from the code region, aligned so the
            // burst cannot cross the 1 kB boundary.
            let offset = ((r >> 8) as u32 % p.code_size) & !0xf;
            BusOp::read_burst(p.code_base + offset, Hsize::Word, Hburst::Incr4)
        } else {
            let offset = ((r >> 8) as u32 % p.data_size) & !0x3;
            let addr = p.data_base + offset;
            let pct2 = ((r >> 40) % 100) as u8;
            if pct2 < p.rmw_pct {
                // Locked read; the paired write issues next.
                self.rmw_addr = Some(addr);
                BusOp::read_single(addr).locked()
            } else if pct2 < p.rmw_pct.saturating_add(p.store_pct) {
                BusOp::write_single(addr, (r >> 16) as u32)
            } else {
                BusOp::read_single(addr)
            }
        }
    }
}

impl AhbMaster for CpuMaster {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> MasterSignals {
        self.engine.outputs()
    }

    fn tick(&mut self, view: &MasterView) {
        self.engine.tick(view);
        if let Some(_res) = self.engine.take_result() {
            // Think time between operations, none inside an RMW pair.
            self.think_left = if self.rmw_addr.is_some() {
                0
            } else {
                (self.next_rand() % (self.profile.max_think as u64 + 1)) as u32
            };
        }
        if !self.engine.busy() {
            if self.think_left > 0 {
                self.think_left -= 1;
            } else {
                let op = self.pick_op();
                self.ops_issued += 1;
                self.engine.submit(op);
            }
        }
    }
}

impl Snapshot for CpuMaster {
    fn save(&self, w: &mut StateWriter<'_>) {
        // The profile is static configuration.
        w.word(self.rng);
        w.u32(self.think_left);
        match self.rmw_addr {
            Some(a) => w.bool(true).u32(a),
            None => w.bool(false),
        };
        self.engine.save(w);
        w.word(self.ops_issued);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.rng = r.word()?;
        self.think_left = r.u32()?;
        self.rmw_addr = if r.bool()? { Some(r.u32()?) } else { None };
        self.engine.restore(r)?;
        self.ops_issued = r.word()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn drive(cpu: &mut CpuMaster, cycles: u32) -> Vec<MasterSignals> {
        let mut outs = Vec::new();
        let mut dp_active = false;
        for _ in 0..cycles {
            let out = cpu.outputs();
            outs.push(out);
            let view = MasterView {
                granted: true,
                dp_mine: dp_active,
                rdata: 0x42,
                ..MasterView::quiet()
            };
            dp_active = out.trans.is_active();
            cpu.tick(&view);
        }
        outs
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = CpuMaster::new(7, CpuProfile::default());
        let mut b = CpuMaster::new(7, CpuProfile::default());
        assert_eq!(drive(&mut a, 500), drive(&mut b, 500));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = CpuMaster::new(7, CpuProfile::default());
        let mut b = CpuMaster::new(8, CpuProfile::default());
        assert_ne!(drive(&mut a, 500), drive(&mut b, 500));
    }

    #[test]
    fn addresses_stay_in_regions() {
        let profile = CpuProfile::default();
        let mut cpu = CpuMaster::new(99, profile);
        for out in drive(&mut cpu, 2000) {
            if out.trans.is_active() {
                let in_code = out.addr >= profile.code_base
                    && out.addr < profile.code_base + profile.code_size;
                let in_data = out.addr >= profile.data_base
                    && out.addr < profile.data_base + profile.data_size;
                assert!(in_code || in_data, "address {:#x} out of regions", out.addr);
                assert_eq!(out.addr % 4, 0, "word aligned");
            }
        }
    }

    #[test]
    fn issues_a_mix_of_reads_writes_and_bursts() {
        let mut cpu = CpuMaster::new(3, CpuProfile::default());
        let outs = drive(&mut cpu, 3000);
        let writes = outs
            .iter()
            .filter(|o| o.trans == crate::signals::Htrans::Nonseq && o.write)
            .count();
        let reads = outs
            .iter()
            .filter(|o| o.trans == crate::signals::Htrans::Nonseq && !o.write)
            .count();
        let bursts = outs
            .iter()
            .filter(|o| o.trans == crate::signals::Htrans::Seq)
            .count();
        assert!(writes > 0, "some writes");
        assert!(reads > 0, "some reads");
        assert!(bursts > 0, "some burst beats");
        assert!(cpu.ops_issued() > 100);
    }

    #[test]
    fn rmw_pairs_are_locked_and_adjacent() {
        let profile = CpuProfile {
            rmw_pct: 100,
            fetch_pct: 0,
            ..CpuProfile::default()
        };
        let mut cpu = CpuMaster::new(5, profile);
        let outs = drive(&mut cpu, 200);
        // Every active phase must be locked (all ops are RMW halves).
        let mut phases = outs.iter().filter(|o| o.trans.is_active());
        let first = phases.next().expect("traffic generated");
        assert!(first.lock);
        assert!(!first.write, "RMW starts with the read half");
        // Find the paired write: same address, locked.
        let write = outs
            .iter()
            .find(|o| o.trans.is_active() && o.write)
            .expect("write-back half");
        assert!(write.lock);
        assert_eq!(write.addr, first.addr);
    }

    #[test]
    fn snapshot_roundtrip_mid_traffic() {
        let mut cpu = CpuMaster::new(11, CpuProfile::default());
        drive(&mut cpu, 137);
        let state = save_to_vec(&cpu);
        let mut copy = CpuMaster::new(11, CpuProfile::default());
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, cpu);
        // And they continue identically.
        assert_eq!(drive(&mut copy, 100), drive(&mut cpu, 100));
    }

    #[test]
    #[should_panic(expected = "seed must be non-zero")]
    fn zero_seed_rejected() {
        let _ = CpuMaster::new(0, CpuProfile::default());
    }
}
