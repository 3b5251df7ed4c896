//! Executable view of the configured fabric.
//!
//! The fabric runs *whatever is in configuration RAM* — there is no
//! side-channel to the original netlist. [`FabricView`] resolves the
//! configured CLBs into a combinational evaluation order (rejecting
//! combinational loops, which on silicon would oscillate) and then steps
//! the region cycle-by-cycle, 64 lanes wide. Flip-flop state lives in the
//! [`Device`], so OS readback/restore and fabric execution observe the
//! same bits — the property the paper's preemption machinery depends on.

use crate::bitstream::{ClbSource, IobConfig};
use crate::device::Device;
use crate::region::Rect;
use std::collections::HashMap;

/// Errors resolving or running a configured region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The configured logic contains a combinational cycle (would
    /// oscillate on real silicon).
    CombinationalLoop {
        /// A CLB on the cycle.
        col: u32,
        /// A CLB on the cycle.
        row: u32,
    },
    /// A CLB input references a CLB outside the view's region — the
    /// circuit is incomplete (e.g. partially paged out).
    DanglingSource {
        /// Referencing CLB column.
        col: u32,
        /// Referencing CLB row.
        row: u32,
    },
    /// A CLB input references a pin not configured as an input IOB.
    BadPinSource(u32),
    /// An output IOB points at an unconfigured CLB.
    DeadOutput(u32),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::CombinationalLoop { col, row } => {
                write!(f, "combinational loop through CLB ({col},{row})")
            }
            FabricError::DanglingSource { col, row } => {
                write!(f, "CLB ({col},{row}) reads an unconfigured source")
            }
            FabricError::BadPinSource(p) => {
                write!(f, "CLB reads pin {p} which is not an input IOB")
            }
            FabricError::DeadOutput(p) => write!(f, "output pin {p} driven by unconfigured CLB"),
        }
    }
}

impl std::error::Error for FabricError {}

/// A resolved, runnable view of one region of the device.
///
/// Construction performs the topological analysis once; stepping is then
/// linear in the number of configured CLBs.
#[derive(Debug)]
pub struct FabricView {
    region: Rect,
    /// Configured cell coordinates in combinational evaluation order.
    order: Vec<(u32, u32)>,
    /// Output pins the view drives, with their source CLB.
    out_pins: Vec<(u32, (u32, u32))>,
    /// Scratch: latest combinational output per cell (keyed by coords).
    comb_out: HashMap<(u32, u32), u64>,
}

impl FabricView {
    /// Resolve the configured contents of `region` on `device`.
    pub fn resolve(device: &Device, region: Rect) -> Result<FabricView, FabricError> {
        assert!(
            device.spec().full_rect().contains_rect(&region),
            "view region outside device"
        );
        // Gather configured cells.
        let mut cells: Vec<(u32, u32)> = Vec::new();
        for (c, r) in region.cells() {
            if device.cell(c, r).is_some() {
                cells.push((c, r));
            }
        }

        // Combinational dependency check + topological sort (Kahn).
        let index: HashMap<(u32, u32), usize> =
            cells.iter().enumerate().map(|(i, &cr)| (cr, i)).collect();
        let mut indeg = vec![0usize; cells.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
        for (i, &(c, r)) in cells.iter().enumerate() {
            let cell = device.cell(c, r).expect("gathered above");
            for src in cell.inputs {
                match src {
                    ClbSource::Clb(sc, sr) => {
                        let Some(&j) = index.get(&(sc, sr)) else {
                            // Outside the region or unconfigured.
                            if region.contains(sc, sr) {
                                return Err(FabricError::DanglingSource { col: c, row: r });
                            }
                            return Err(FabricError::DanglingSource { col: c, row: r });
                        };
                        let src_cell = device.cell(sc, sr).expect("indexed");
                        // A registered output is a sequential edge.
                        if !src_cell.out_from_ff {
                            dependents[j].push(i);
                            indeg[i] += 1;
                        }
                    }
                    ClbSource::Pin(p) => {
                        if p >= device.spec().io_pins || !matches!(device.iob(p), IobConfig::Input)
                        {
                            return Err(FabricError::BadPinSource(p));
                        }
                    }
                    ClbSource::None | ClbSource::Const(_) => {}
                }
            }
        }
        let mut queue: Vec<usize> = (0..cells.len()).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(cells.len());
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(cells[i]);
            for &d in &dependents[i] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() != cells.len() {
            let &(c, r) = cells
                .iter()
                .find(|cr| indeg[index[*cr]] > 0)
                .expect("cycle must leave positive in-degree");
            return Err(FabricError::CombinationalLoop { col: c, row: r });
        }

        // Pins.
        let mut out_pins = Vec::new();
        for p in 0..device.spec().io_pins {
            match device.iob(p) {
                IobConfig::Output(c, r) => {
                    if region.contains(c, r) {
                        if device.cell(c, r).is_none() {
                            return Err(FabricError::DeadOutput(p));
                        }
                        out_pins.push((p, (c, r)));
                    }
                }
                IobConfig::Input | IobConfig::Unused => {}
            }
        }

        Ok(FabricView {
            region,
            order,
            out_pins,
            comb_out: HashMap::new(),
        })
    }

    /// The region this view executes.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Output pins driven by the view (ascending), with source CLBs.
    pub fn output_pins(&self) -> &[(u32, (u32, u32))] {
        &self.out_pins
    }

    /// Number of configured CLBs in the view.
    pub fn cell_count(&self) -> usize {
        self.order.len()
    }

    fn source_value(&self, device: &Device, src: ClbSource, pins: &HashMap<u32, u64>) -> u64 {
        match src {
            ClbSource::None => 0,
            ClbSource::Const(b) => {
                if b {
                    u64::MAX
                } else {
                    0
                }
            }
            ClbSource::Pin(p) => pins.get(&p).copied().unwrap_or(0),
            ClbSource::Clb(c, r) => {
                let cell = device.cell(c, r).expect("resolved view");
                if cell.out_from_ff {
                    device.ff_word(c, r)
                } else {
                    self.comb_out.get(&(c, r)).copied().unwrap_or(0)
                }
            }
        }
    }

    /// Evaluate all combinational logic for the given pin values
    /// (`pins[pin] = 64-lane word`). Registers are not advanced.
    pub fn eval(&mut self, device: &Device, pins: &HashMap<u32, u64>) {
        // Evaluate in topological order into comb_out.
        let order = self.order.clone();
        for (c, r) in order {
            let cell = device.cell(c, r).expect("resolved view");
            let in_words: [u64; 4] = [
                self.source_value(device, cell.inputs[0], pins),
                self.source_value(device, cell.inputs[1], pins),
                self.source_value(device, cell.inputs[2], pins),
                self.source_value(device, cell.inputs[3], pins),
            ];
            let mut out = 0u64;
            for lane in 0..64 {
                let mut idx = 0usize;
                for (b, w) in in_words.iter().enumerate() {
                    idx |= (((w >> lane) & 1) as usize) << b;
                }
                out |= (((cell.lut_table >> idx) & 1) as u64) << lane;
            }
            self.comb_out.insert((c, r), out);
        }
    }

    /// Latch every flip-flop in the view from its LUT output. Call after
    /// [`FabricView::eval`].
    pub fn clock(&self, device: &mut Device) {
        for &(c, r) in &self.order {
            let cell = device.cell(c, r).expect("resolved view");
            if cell.has_ff {
                let v = self.comb_out.get(&(c, r)).copied().unwrap_or(0);
                device.set_ff_word(c, r, v);
            }
        }
    }

    /// One full synchronous cycle.
    pub fn step(&mut self, device: &mut Device, pins: &HashMap<u32, u64>) {
        self.eval(device, pins);
        self.clock(device);
    }

    /// Read the word currently driven onto output `pin`.
    ///
    /// # Panics
    /// Panics if `pin` is not one of the view's outputs.
    pub fn output(&self, device: &Device, pin: u32) -> u64 {
        let &(_, (c, r)) = self
            .out_pins
            .iter()
            .find(|(p, _)| *p == pin)
            .unwrap_or_else(|| panic!("pin {pin} is not an output of this view"));
        let cell = device.cell(c, r).expect("resolved view");
        if cell.out_from_ff {
            device.ff_word(c, r)
        } else {
            self.comb_out.get(&(c, r)).copied().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{Bitstream, ClbCell, FrameWrite};
    use crate::config::ConfigPort;
    use crate::device::part;

    fn device() -> Device {
        Device::new(part("VF100"), ConfigPort::SerialFast)
    }

    fn pins(vals: &[(u32, u64)]) -> HashMap<u32, u64> {
        vals.iter().copied().collect()
    }

    #[test]
    fn xor_gate_executes() {
        let mut d = device();
        let cell = ClbCell::comb(
            0b0110,
            [
                ClbSource::Pin(0),
                ClbSource::Pin(1),
                ClbSource::None,
                ClbSource::None,
            ],
        );
        let bs = Bitstream::new(
            "xor",
            vec![FrameWrite {
                col: 2,
                row0: 2,
                cells: vec![Some(cell)],
            }],
            vec![
                (0, IobConfig::Input),
                (1, IobConfig::Input),
                (5, IobConfig::Output(2, 2)),
            ],
            false,
        );
        d.apply(&bs).unwrap();
        let mut v = FabricView::resolve(&d, Rect::new(0, 0, 10, 10)).unwrap();
        v.eval(&d, &pins(&[(0, 0b1100), (1, 0b1010)]));
        assert_eq!(v.output(&d, 5) & 0xF, 0b0110);
    }

    #[test]
    fn two_level_logic_orders_correctly() {
        let mut d = device();
        // CLB(0,0) = AND(pin0, pin1); CLB(1,0) = NOT(CLB(0,0)).
        let and = ClbCell::comb(
            0b1000,
            [
                ClbSource::Pin(0),
                ClbSource::Pin(1),
                ClbSource::None,
                ClbSource::None,
            ],
        );
        let not = ClbCell::comb(
            0b01,
            [
                ClbSource::Clb(0, 0),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
        );
        let bs = Bitstream::new(
            "nand2",
            vec![
                // Deliberately download the downstream CLB first; execution
                // order must come from the dependency analysis, not the
                // download order.
                FrameWrite {
                    col: 1,
                    row0: 0,
                    cells: vec![Some(not)],
                },
                FrameWrite {
                    col: 0,
                    row0: 0,
                    cells: vec![Some(and)],
                },
            ],
            vec![
                (0, IobConfig::Input),
                (1, IobConfig::Input),
                (2, IobConfig::Output(1, 0)),
            ],
            false,
        );
        d.apply(&bs).unwrap();
        let mut v = FabricView::resolve(&d, Rect::new(0, 0, 10, 10)).unwrap();
        for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            v.eval(&d, &pins(&[(0, a), (1, b)]));
            assert_eq!(v.output(&d, 2) & 1, 1 - (a & b), "a={a} b={b}");
        }
    }

    #[test]
    fn registered_toggle_runs_and_reads_back() {
        let mut d = device();
        // CLB(3,3): LUT = NOT(self FF), registered, out from FF -> toggle.
        let toggle = ClbCell::registered(
            0b01,
            [
                ClbSource::Clb(3, 3),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
            false,
        );
        let bs = Bitstream::new(
            "toggle",
            vec![FrameWrite {
                col: 3,
                row0: 3,
                cells: vec![Some(toggle)],
            }],
            vec![(0, IobConfig::Output(3, 3))],
            false,
        );
        d.apply(&bs).unwrap();
        let mut v = FabricView::resolve(&d, Rect::new(0, 0, 10, 10)).unwrap();
        let empty = pins(&[]);
        let mut seen = Vec::new();
        for _ in 0..4 {
            v.eval(&d, &empty);
            seen.push(v.output(&d, 0) & 1);
            v.clock(&mut d);
        }
        assert_eq!(seen, vec![0, 1, 0, 1]);

        // OS-style save/restore through Device readback.
        let r = Rect::new(3, 3, 1, 1);
        let (snap, _) = d.readback_region(&r);
        v.step(&mut d, &empty);
        v.eval(&d, &empty);
        let after = v.output(&d, 0) & 1;
        d.write_state_region(&r, &snap);
        v.eval(&d, &empty);
        let restored = v.output(&d, 0) & 1;
        assert_ne!(after, restored, "restore must rewind the toggle");
    }

    #[test]
    fn combinational_loop_detected() {
        let mut d = device();
        let a = ClbCell::comb(
            0b01,
            [
                ClbSource::Clb(1, 0),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
        );
        let b = ClbCell::comb(
            0b01,
            [
                ClbSource::Clb(0, 0),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
        );
        let bs = Bitstream::new(
            "loop",
            vec![
                FrameWrite {
                    col: 0,
                    row0: 0,
                    cells: vec![Some(a)],
                },
                FrameWrite {
                    col: 1,
                    row0: 0,
                    cells: vec![Some(b)],
                },
            ],
            vec![],
            false,
        );
        d.apply(&bs).unwrap();
        assert!(matches!(
            FabricView::resolve(&d, Rect::new(0, 0, 10, 10)),
            Err(FabricError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn dangling_source_detected() {
        let mut d = device();
        let a = ClbCell::comb(
            0b01,
            [
                ClbSource::Clb(5, 5),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
        );
        let bs = Bitstream::new(
            "dangle",
            vec![FrameWrite {
                col: 0,
                row0: 0,
                cells: vec![Some(a)],
            }],
            vec![],
            false,
        );
        d.apply(&bs).unwrap();
        assert!(matches!(
            FabricView::resolve(&d, Rect::new(0, 0, 10, 10)),
            Err(FabricError::DanglingSource { col: 0, row: 0 })
        ));
    }

    #[test]
    fn unconfigured_pin_source_detected() {
        let mut d = device();
        let a = ClbCell::comb(
            0b10,
            [
                ClbSource::Pin(7),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
        );
        let bs = Bitstream::new(
            "badpin",
            vec![FrameWrite {
                col: 0,
                row0: 0,
                cells: vec![Some(a)],
            }],
            vec![], // pin 7 never configured as input
            false,
        );
        d.apply(&bs).unwrap();
        match FabricView::resolve(&d, Rect::new(0, 0, 10, 10)) {
            Err(FabricError::BadPinSource(7)) => {}
            other => panic!("expected BadPinSource(7), got {other:?}"),
        }
    }

    #[test]
    fn sequential_cross_feedback_is_legal() {
        // Two registered CLBs feeding each other: fine, edges are sequential.
        let mut d = device();
        let a = ClbCell::registered(
            0b01,
            [
                ClbSource::Clb(1, 0),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
            false,
        );
        let b = ClbCell::registered(
            0b10,
            [
                ClbSource::Clb(0, 0),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
            true,
        );
        let bs = Bitstream::new(
            "pair",
            vec![
                FrameWrite {
                    col: 0,
                    row0: 0,
                    cells: vec![Some(a)],
                },
                FrameWrite {
                    col: 1,
                    row0: 0,
                    cells: vec![Some(b)],
                },
            ],
            vec![],
            false,
        );
        d.apply(&bs).unwrap();
        let v = FabricView::resolve(&d, Rect::new(0, 0, 10, 10));
        assert!(v.is_ok());
        assert_eq!(v.unwrap().cell_count(), 2);
    }
}
