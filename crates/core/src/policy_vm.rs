//! The loadable policy VM — the reproduction's stand-in for the paper's
//! eBPF policy extension point (§2.1: "the policy is encoded as a kernel
//! module or an eBPF extension so the policy functions can be directly
//! called").
//!
//! Policies are small register programs over a read-only view of the
//! placement context and tier table. Like eBPF, programs are *verified at
//! load time* (register bounds, jump targets) and *bounded at run time*
//! (step budget), so a buggy user policy cannot wedge the I/O path; any
//! runtime fault falls back to tier 0 of the sorted table (the fastest).

use crate::policy::{PlacementCtx, TierStatus, TieringPolicy};
use crate::types::TierId;

/// Context fields a program can load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxField {
    /// Byte offset of the write.
    Off,
    /// Byte length of the write.
    Len,
    /// Current logical file size.
    FileSize,
    /// 1 if the run appends at/past EOF.
    IsAppend,
    /// 1 if the writer asked for synchronous semantics.
    IsSync,
    /// File identity (for hashing/striping).
    Ino,
    /// Number of registered tiers.
    NumTiers,
}

/// VM instructions. `usize` register indexes must be < 8; tier indexes
/// refer to the tier table sorted fastest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmOp {
    /// `r[dst] = ctx[field]`
    LoadCtx(usize, CtxField),
    /// `r[dst] = free_bytes(tier_table[r[src] % num_tiers])`
    TierFree(usize, usize),
    /// `r[dst] = imm`
    MovImm(usize, i64),
    /// `r[dst] = r[src]`
    Mov(usize, usize),
    /// `r[dst] += r[src]`
    Add(usize, usize),
    /// `r[dst] -= r[src]`
    Sub(usize, usize),
    /// `r[dst] *= r[src]`
    Mul(usize, usize),
    /// `r[dst] /= r[src]` (0 on division by zero)
    Div(usize, usize),
    /// `r[dst] %= r[src]` (0 on modulo by zero)
    Mod(usize, usize),
    /// Relative jump (may be negative); 0 means "next instruction".
    Jmp(i32),
    /// Jump if `r[a] < r[b]`.
    Jlt(usize, usize, i32),
    /// Jump if `r[a] == r[b]`.
    Jeq(usize, usize, i32),
    /// Jump if `r[a] > r[b]`.
    Jgt(usize, usize, i32),
    /// Return `r0` as a fastest-first tier-table index.
    Ret,
}

/// A verified policy program.
#[derive(Debug, Clone)]
pub struct PolicyProgram {
    ops: Vec<VmOp>,
}

/// Load-time verification errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A register index is out of range.
    BadRegister(usize),
    /// A jump lands outside the program.
    BadJump(usize),
    /// The program can fall off the end without `Ret`.
    MissingRet,
    /// The program is empty or too large.
    BadLength,
}

const N_REGS: usize = 8;
const MAX_OPS: usize = 4096;
const STEP_BUDGET: usize = 65_536;

impl PolicyProgram {
    /// Verifies and loads a program.
    pub fn load(ops: Vec<VmOp>) -> Result<Self, VerifyError> {
        if ops.is_empty() || ops.len() > MAX_OPS {
            return Err(VerifyError::BadLength);
        }
        let check_reg = |r: usize| {
            if r < N_REGS {
                Ok(())
            } else {
                Err(VerifyError::BadRegister(r))
            }
        };
        let check_jump = |pc: usize, off: i32| {
            let target = pc as i64 + 1 + i64::from(off);
            if target < 0 || target > ops.len() as i64 {
                Err(VerifyError::BadJump(pc))
            } else {
                Ok(())
            }
        };
        for (pc, op) in ops.iter().enumerate() {
            match *op {
                VmOp::LoadCtx(d, _) => check_reg(d)?,
                VmOp::TierFree(d, s) => {
                    check_reg(d)?;
                    check_reg(s)?;
                }
                VmOp::MovImm(d, _) => check_reg(d)?,
                VmOp::Mov(d, s)
                | VmOp::Add(d, s)
                | VmOp::Sub(d, s)
                | VmOp::Mul(d, s)
                | VmOp::Div(d, s)
                | VmOp::Mod(d, s) => {
                    check_reg(d)?;
                    check_reg(s)?;
                }
                VmOp::Jmp(off) => check_jump(pc, off)?,
                VmOp::Jlt(a, b, off) | VmOp::Jeq(a, b, off) | VmOp::Jgt(a, b, off) => {
                    check_reg(a)?;
                    check_reg(b)?;
                    check_jump(pc, off)?;
                }
                VmOp::Ret => {}
            }
        }
        if !ops.contains(&VmOp::Ret) {
            return Err(VerifyError::MissingRet);
        }
        Ok(PolicyProgram { ops })
    }

    /// Runs the program; returns the chosen fastest-first tier index, or
    /// `None` on step-budget exhaustion or fall-through.
    pub fn run(&self, ctx: &PlacementCtx<'_>, sorted: &[&TierStatus]) -> Option<usize> {
        let mut r = [0i64; N_REGS];
        let mut pc = 0usize;
        let n = sorted.len().max(1) as i64;
        for _ in 0..STEP_BUDGET {
            if pc >= self.ops.len() {
                return None;
            }
            match self.ops[pc] {
                VmOp::LoadCtx(d, f) => {
                    r[d] = match f {
                        CtxField::Off => ctx.off as i64,
                        CtxField::Len => ctx.len as i64,
                        CtxField::FileSize => ctx.file_size as i64,
                        CtxField::IsAppend => ctx.is_append as i64,
                        CtxField::IsSync => ctx.sync as i64,
                        CtxField::Ino => ctx.ino as i64,
                        CtxField::NumTiers => sorted.len() as i64,
                    };
                }
                VmOp::TierFree(d, s) => {
                    let idx = (r[s].rem_euclid(n)) as usize;
                    r[d] = sorted.get(idx).map(|t| t.free_bytes as i64).unwrap_or(0);
                }
                VmOp::MovImm(d, imm) => r[d] = imm,
                VmOp::Mov(d, s) => r[d] = r[s],
                VmOp::Add(d, s) => r[d] = r[d].wrapping_add(r[s]),
                VmOp::Sub(d, s) => r[d] = r[d].wrapping_sub(r[s]),
                VmOp::Mul(d, s) => r[d] = r[d].wrapping_mul(r[s]),
                VmOp::Div(d, s) => r[d] = if r[s] == 0 { 0 } else { r[d] / r[s] },
                VmOp::Mod(d, s) => r[d] = if r[s] == 0 { 0 } else { r[d] % r[s] },
                VmOp::Jmp(off) => {
                    pc = (pc as i64 + 1 + i64::from(off)) as usize;
                    continue;
                }
                VmOp::Jlt(a, b, off) => {
                    if r[a] < r[b] {
                        pc = (pc as i64 + 1 + i64::from(off)) as usize;
                        continue;
                    }
                }
                VmOp::Jeq(a, b, off) => {
                    if r[a] == r[b] {
                        pc = (pc as i64 + 1 + i64::from(off)) as usize;
                        continue;
                    }
                }
                VmOp::Jgt(a, b, off) => {
                    if r[a] > r[b] {
                        pc = (pc as i64 + 1 + i64::from(off)) as usize;
                        continue;
                    }
                }
                VmOp::Ret => return Some(r[0].rem_euclid(n) as usize),
            }
            pc += 1;
        }
        None
    }
}

/// A [`TieringPolicy`] backed by a [`PolicyProgram`].
pub struct VmPolicy {
    program: PolicyProgram,
    name: String,
}

impl VmPolicy {
    /// Wraps a verified program.
    pub fn new(name: impl Into<String>, program: PolicyProgram) -> Self {
        VmPolicy {
            program,
            name: name.into(),
        }
    }
}

impl TieringPolicy for VmPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        let mut sorted: Vec<&TierStatus> = ctx.tiers.iter().collect();
        sorted.sort_by_key(|t| t.class);
        let idx = self.program.run(ctx, &sorted).unwrap_or(0);
        sorted
            .get(idx)
            .or(sorted.first())
            .map(|t| t.id)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::DeviceClass;

    fn tiers() -> Vec<TierStatus> {
        vec![
            TierStatus {
                id: 10,
                name: "pm".into(),
                class: DeviceClass::Pmem,
                free_bytes: 1 << 20,
                total_bytes: 1 << 21,
                reserve_bytes: 512 << 10,
                health: crate::health::TierHealthState::Healthy,
            },
            TierStatus {
                id: 20,
                name: "hdd".into(),
                class: DeviceClass::Hdd,
                free_bytes: 1 << 30,
                total_bytes: 1 << 31,
                reserve_bytes: 512 << 10,
                health: crate::health::TierHealthState::Healthy,
            },
        ]
    }

    fn ctx(tiers: &[TierStatus], len: u64, sync: bool) -> PlacementCtx<'_> {
        PlacementCtx {
            ino: 42,
            off: 0,
            len,
            file_size: 0,
            is_append: true,
            sync,
            tiers,
        }
    }

    /// if len <= 64K || sync { ret 0 } else { ret 1 }
    fn tpfs_like() -> PolicyProgram {
        PolicyProgram::load(vec![
            VmOp::LoadCtx(1, CtxField::Len),
            VmOp::MovImm(2, 65536),
            VmOp::LoadCtx(3, CtxField::IsSync),
            VmOp::MovImm(4, 1),
            VmOp::Jeq(3, 4, 2), // sync → ret 0
            VmOp::Jgt(1, 2, 3), // len > 64K → big path
            VmOp::MovImm(0, 0), // small/sync: fastest
            VmOp::Ret,
            VmOp::Jmp(1),       // (unreachable filler to test jumps)
            VmOp::MovImm(0, 1), // big: slowest
            VmOp::Ret,
        ])
        .unwrap()
    }

    #[test]
    fn tpfs_like_program_routes_by_size_and_sync() {
        let t = tiers();
        let p = VmPolicy::new("vm-tpfs", tpfs_like());
        assert_eq!(p.place(&ctx(&t, 1024, false)), 10);
        assert_eq!(p.place(&ctx(&t, 1 << 20, false)), 20);
        assert_eq!(p.place(&ctx(&t, 1 << 20, true)), 10, "sync overrides size");
    }

    #[test]
    fn verifier_rejects_bad_register() {
        let e = PolicyProgram::load(vec![VmOp::MovImm(9, 0), VmOp::Ret]).unwrap_err();
        assert_eq!(e, VerifyError::BadRegister(9));
    }

    #[test]
    fn verifier_rejects_bad_jump() {
        let e = PolicyProgram::load(vec![VmOp::Jmp(100), VmOp::Ret]).unwrap_err();
        assert_eq!(e, VerifyError::BadJump(0));
        let e = PolicyProgram::load(vec![VmOp::Jmp(-5), VmOp::Ret]).unwrap_err();
        assert_eq!(e, VerifyError::BadJump(0));
    }

    #[test]
    fn verifier_requires_ret() {
        let e = PolicyProgram::load(vec![VmOp::MovImm(0, 0)]).unwrap_err();
        assert_eq!(e, VerifyError::MissingRet);
        assert_eq!(
            PolicyProgram::load(vec![]).unwrap_err(),
            VerifyError::BadLength
        );
    }

    #[test]
    fn infinite_loop_hits_step_budget_and_falls_back() {
        let prog = PolicyProgram::load(vec![VmOp::Jmp(-1), VmOp::Ret]).unwrap();
        let t = tiers();
        let c = ctx(&t, 1, false);
        let sorted: Vec<&TierStatus> = t.iter().collect();
        assert_eq!(prog.run(&c, &sorted), None);
        // The policy wrapper falls back to the fastest tier.
        let p = VmPolicy::new("loop", prog);
        assert_eq!(p.place(&c), 10);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let prog = PolicyProgram::load(vec![
            VmOp::MovImm(1, 5),
            VmOp::MovImm(2, 0),
            VmOp::Div(1, 2),
            VmOp::Mov(0, 1),
            VmOp::Ret,
        ])
        .unwrap();
        let t = tiers();
        let c = ctx(&t, 1, false);
        let sorted: Vec<&TierStatus> = t.iter().collect();
        assert_eq!(prog.run(&c, &sorted), Some(0));
    }

    #[test]
    fn striping_program_uses_modulo() {
        // ret (off / 4096) % num_tiers
        let prog = PolicyProgram::load(vec![
            VmOp::LoadCtx(0, CtxField::Off),
            VmOp::MovImm(1, 4096),
            VmOp::Div(0, 1),
            VmOp::LoadCtx(2, CtxField::NumTiers),
            VmOp::Mod(0, 2),
            VmOp::Ret,
        ])
        .unwrap();
        let t = tiers();
        let sorted: Vec<&TierStatus> = t.iter().collect();
        let mut c = ctx(&t, 4096, false);
        c.off = 0;
        assert_eq!(prog.run(&c, &sorted), Some(0));
        c.off = 4096;
        assert_eq!(prog.run(&c, &sorted), Some(1));
        c.off = 8192;
        assert_eq!(prog.run(&c, &sorted), Some(0));
    }

    #[test]
    fn tier_free_reads_table() {
        // ret 0 if free(tier0) > free(tier1) else 1  → HDD has more free.
        let prog = PolicyProgram::load(vec![
            VmOp::MovImm(1, 0),
            VmOp::TierFree(2, 1), // free of tier 0
            VmOp::MovImm(1, 1),
            VmOp::TierFree(3, 1), // free of tier 1
            VmOp::MovImm(0, 0),
            VmOp::Jgt(2, 3, 1),
            VmOp::MovImm(0, 1),
            VmOp::Ret,
        ])
        .unwrap();
        let t = tiers();
        let c = ctx(&t, 1, false);
        let sorted: Vec<&TierStatus> = t.iter().collect();
        assert_eq!(prog.run(&c, &sorted), Some(1));
    }
}
