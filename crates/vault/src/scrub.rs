//! Shelf scrub-and-repair (`DESIGN.md` §16).
//!
//! A shelf that sits for decades accumulates *latent* damage: frames
//! that no longer decode, reels that went missing, parity that silently
//! drifted from its members. None of it is visible until a restore
//! trips over it — and by then the damage may have grown past the
//! group's `RS(k+m, k)` budget. [`Vault::scrub`] is the periodic audit:
//! it decodes every frame of every present reel exactly once, checks
//! each against the layout-derived header it must carry (the inner RS
//! code and the header CRC make a successful decode a per-frame
//! integrity proof), verifies parity-group consistency on clean groups,
//! and classifies every reel as clean, correctable, or lost.
//! [`Vault::repair`] then spends the parity budget *now*, while it
//! still covers the damage: damaged or missing reels are re-encoded as
//! pristine emblems in place, so a follow-up scrub reports a clean
//! shelf (repair is idempotent — on a clean shelf it is a no-op).
//!
//! Scrub classifies; it never mutates. Repair mutates only reels the
//! scrub found non-clean, and only when their parity groups can still
//! solve them — anything past the budget is reported as unrepairable,
//! never half-written.

use std::collections::BTreeMap;

use crate::layout::ReelLayout;
use crate::{ReelRole, ReelScans, RestorePath, Vault, VaultError, VaultRestoreStats};
use micr_olonys::Bootstrap;
use ule_emblem::decode_emblem;
use ule_gf256::RsCode;

/// Scrub verdict for one reel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReelHealth {
    /// Every frame decodes to exactly the emission the layout demands
    /// (inner-RS corrections along the way are fine — that is the code
    /// doing its job, not damage the shelf keeps).
    Clean,
    /// Present but damaged, and every damaged offset is within its
    /// group's erasure budget — [`Vault::repair`] can rebuild it.
    Correctable,
    /// Physically missing, shape-wrong, or damaged beyond what the
    /// group's parity can solve.
    Lost,
}

/// One reel's scrub record.
#[derive(Clone, Debug)]
pub struct ReelScrub {
    pub reel: usize,
    pub role: ReelRole,
    /// True when the shelf physically holds the reel (even shape-wrong).
    pub present: bool,
    /// Frames the manifest says the reel holds.
    pub frames: usize,
    /// Offsets that failed to decode (all of them for a missing or
    /// shape-wrong reel).
    pub damaged: Vec<usize>,
    /// Inner-RS symbols corrected across the reel's clean decodes.
    pub corrected_symbols: usize,
    pub health: ReelHealth,
}

/// One parity group's scrub record.
#[derive(Clone, Debug)]
pub struct GroupScrub {
    pub group: usize,
    /// Content reel ids.
    pub members: Vec<usize>,
    /// Parity reel ids, slot order.
    pub parity: Vec<usize>,
    /// The group's erasure budget (`m` of `RS(k+m, k)`).
    pub budget: usize,
    /// Reels physically missing or shape-wrong.
    pub lost: Vec<usize>,
    /// Present reels with at least one damaged frame.
    pub damaged: Vec<usize>,
    /// Whether every offset's erasures fit the budget — i.e. whether
    /// [`Vault::repair`] can bring the whole group back to clean.
    pub recoverable: bool,
    /// Offsets where recomputed parity disagrees with the parity reels
    /// (checked only on groups with no other damage; the disagreeing
    /// parity frames are marked damaged so repair re-encodes them).
    pub parity_mismatch_offsets: usize,
}

/// Machine-readable result of one [`Vault::scrub`] walk.
#[derive(Clone, Debug)]
pub struct ScrubReport {
    pub reels: Vec<ReelScrub>,
    pub groups: Vec<GroupScrub>,
}

impl ScrubReport {
    /// `(clean, correctable, lost)` reel counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.reels {
            match r.health {
                ReelHealth::Clean => c.0 += 1,
                ReelHealth::Correctable => c.1 += 1,
                ReelHealth::Lost => c.2 += 1,
            }
        }
        c
    }

    /// Every reel clean and every group parity-consistent.
    pub fn is_clean(&self) -> bool {
        self.reels.iter().all(|r| r.health == ReelHealth::Clean)
            && self.groups.iter().all(|g| g.parity_mismatch_offsets == 0)
    }

    /// Total damaged frames across the shelf.
    pub fn damaged_frames(&self) -> usize {
        self.reels.iter().map(|r| r.damaged.len()).sum()
    }
}

/// What one [`Vault::repair`] pass did to the shelf.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Reels at least one frame of which was re-encoded in place.
    pub reels_rebuilt: Vec<usize>,
    /// Pristine frames written back across those reels.
    pub frames_reencoded: usize,
    /// Sibling + parity frames decoded to solve the erasures.
    pub recovery_frames_decoded: usize,
    /// Non-clean reels whose groups could not solve them (beyond the
    /// parity budget, or no parity at all). Left untouched.
    pub unrepairable: Vec<usize>,
}

impl RepairReport {
    /// True when the pass changed nothing and left nothing broken —
    /// what repair on an already-clean shelf reports.
    pub fn is_noop(&self) -> bool {
        self.reels_rebuilt.is_empty() && self.unrepairable.is_empty()
    }
}

/// Everything one reel's audit learned, payloads kept for the group's
/// parity-consistency check.
struct ReelAudit {
    present: bool,
    shape_ok: bool,
    /// Expected frame count per the manifest.
    frames: usize,
    damaged: Vec<usize>,
    corrected: usize,
    /// Per-offset decoded payloads, zero-padded to `chunk_cap`; `None`
    /// where the frame is damaged or the reel is missing.
    payloads: Vec<Option<Vec<u8>>>,
}

impl Vault {
    /// Walk every reel of the shelf, verify every frame, and classify.
    ///
    /// Read-only: the scans are untouched, the verdicts land in the
    /// returned [`ScrubReport`] and on the `scrub.*` telemetry counters.
    pub fn scrub(
        &self,
        bootstrap: &Bootstrap,
        reels: &ReelScans,
    ) -> Result<ScrubReport, VaultError> {
        let _span = self.system.telemetry.span("vault.scrub");
        let Some(manifest) = &bootstrap.vault else {
            return Err(VaultError::ShapeMismatch(
                "classic archive carries no reel manifest to scrub".into(),
            ));
        };
        let layout = self.layout_of(bootstrap, manifest);
        if reels.len() != layout.total_reels() {
            return Err(VaultError::ShapeMismatch(format!(
                "manifest describes {} reels, shelf holds {}",
                layout.total_reels(),
                reels.len()
            )));
        }

        let mut report = ScrubReport {
            reels: (0..layout.total_reels())
                .map(|r| ReelScrub {
                    reel: r,
                    role: match layout.parity_role_of(r) {
                        Some((group, slot)) => ReelRole::Parity { group, slot },
                        None => ReelRole::Content,
                    },
                    present: false,
                    frames: 0,
                    damaged: Vec::new(),
                    corrected_symbols: 0,
                    health: ReelHealth::Lost,
                })
                .collect(),
            groups: Vec::new(),
        };

        if layout.parity_reels() == 0 {
            // No cross-reel parity: a reel is clean or it is lost —
            // there is no budget to correct against. (The stream-level
            // outer code may still save a *restore*; scrub reports the
            // shelf, not the restore's odds.)
            for r in 0..layout.total_reels() {
                let audit = self.audit_reel(&layout, reels, r);
                let rec = &mut report.reels[r];
                rec.present = audit.present;
                rec.frames = audit.frames;
                rec.corrected_symbols = audit.corrected;
                rec.health = if audit.present && audit.shape_ok && audit.damaged.is_empty() {
                    ReelHealth::Clean
                } else {
                    ReelHealth::Lost
                };
                rec.damaged = audit.damaged;
            }
            self.count_scrub(&report);
            return Ok(report);
        }

        for g in 0..layout.groups() {
            let members: Vec<usize> = layout.group_members(g).collect();
            let parity: Vec<usize> = layout.parity_reels_of(g).collect();
            let group_reels: Vec<usize> = members
                .iter()
                .copied()
                .chain(parity.iter().copied())
                .collect();
            let m = layout.group_parity;
            let width = layout.parity_reel_frames(g);

            let mut audits: BTreeMap<usize, ReelAudit> = group_reels
                .iter()
                .map(|&r| (r, self.audit_reel(&layout, reels, r)))
                .collect();

            let lost: Vec<usize> = group_reels
                .iter()
                .copied()
                .filter(|r| {
                    let a = &audits[r];
                    !a.present || !a.shape_ok
                })
                .collect();

            // Parity-group consistency: on a group with no damage at
            // all, recompute every parity stream from the member
            // payloads and diff it against what the parity reels decode
            // to. The member frames each carry their own integrity
            // proof, so a disagreement convicts the parity frame — mark
            // it damaged and let repair re-encode it.
            let mut parity_mismatch_offsets = 0usize;
            let undamaged =
                lost.is_empty() && group_reels.iter().all(|r| audits[r].damaged.is_empty());
            if undamaged {
                let cap = layout.chunk_cap;
                let streams: Vec<Vec<u8>> = members
                    .iter()
                    .map(|r| {
                        let a = &audits[r];
                        let mut s = Vec::with_capacity(width * cap);
                        for p in &a.payloads {
                            s.extend_from_slice(p.as_deref().expect("undamaged"));
                        }
                        s.resize(width * cap, 0);
                        s
                    })
                    .collect();
                let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
                let rs = RsCode::new(members.len() + m, members.len());
                let mut bad_offsets: Vec<usize> = Vec::new();
                for (slot, want) in rs.parity_of(&refs).into_iter().enumerate() {
                    let pr = parity[slot];
                    for j in 0..width {
                        let got = audits[&pr].payloads[j].as_deref().expect("undamaged");
                        if got != &want[j * cap..(j + 1) * cap] {
                            audits.get_mut(&pr).unwrap().damaged.push(j);
                            audits.get_mut(&pr).unwrap().payloads[j] = None;
                            if !bad_offsets.contains(&j) {
                                bad_offsets.push(j);
                            }
                        }
                    }
                }
                parity_mismatch_offsets = bad_offsets.len();
            }

            // Per-offset erasure count: lost reels erase every offset,
            // damaged frames only theirs. The group is recoverable iff
            // no offset exceeds the budget.
            let mut over_budget: Vec<usize> = Vec::new();
            for j in 0..width {
                let erased = lost.len()
                    + group_reels
                        .iter()
                        .filter(|r| !lost.contains(r) && audits[r].damaged.contains(&j))
                        .count();
                if erased > m {
                    over_budget.push(j);
                }
            }
            let recoverable = over_budget.is_empty();

            let mut damaged_reels: Vec<usize> = Vec::new();
            for &r in &group_reels {
                let a = audits.remove(&r).expect("audited");
                let rec = &mut report.reels[r];
                rec.present = a.present;
                rec.frames = a.frames;
                rec.corrected_symbols = a.corrected;
                rec.health = if !a.present || !a.shape_ok {
                    ReelHealth::Lost
                } else if a.damaged.is_empty() {
                    ReelHealth::Clean
                } else if a.damaged.iter().all(|j| !over_budget.contains(j)) {
                    damaged_reels.push(r);
                    ReelHealth::Correctable
                } else {
                    damaged_reels.push(r);
                    ReelHealth::Lost
                };
                rec.damaged = a.damaged;
            }

            report.groups.push(GroupScrub {
                group: g,
                members,
                parity,
                budget: m,
                lost,
                damaged: damaged_reels,
                recoverable,
                parity_mismatch_offsets,
            });
        }

        self.count_scrub(&report);
        Ok(report)
    }

    /// Rebuild every non-clean reel the parity budget still covers,
    /// re-encoding pristine emblems in place. Scrub-after-repair on a
    /// recoverable shelf reports clean; repair on a clean shelf is a
    /// no-op; running it twice changes nothing the first run did not.
    pub fn repair(
        &self,
        bootstrap: &Bootstrap,
        reels: &mut ReelScans,
    ) -> Result<RepairReport, VaultError> {
        let _span = self.system.telemetry.span("vault.repair");
        let scrub = self.scrub(bootstrap, reels)?;
        let manifest = bootstrap.vault.as_ref().expect("scrub validated");
        let layout = self.layout_of(bootstrap, manifest);
        let mut out = RepairReport::default();

        if layout.parity_reels() == 0 {
            out.unrepairable = scrub
                .reels
                .iter()
                .filter(|r| r.health != ReelHealth::Clean)
                .map(|r| r.reel)
                .collect();
            self.count_repair(&out);
            return Ok(out);
        }

        // Scratch restore stats: repair reuses the restore-path group
        // solver, which reports its work through this.
        let mut stats = VaultRestoreStats::new(RestorePath::Full, layout.data_frames());
        for g in &scrub.groups {
            let fix: Vec<&ReelScrub> = g
                .members
                .iter()
                .chain(&g.parity)
                .map(|&r| &scrub.reels[r])
                .filter(|r| r.health != ReelHealth::Clean || !r.damaged.is_empty())
                .collect();
            if fix.is_empty() {
                continue;
            }
            let wants: Vec<(usize, usize)> = fix
                .iter()
                .flat_map(|r| r.damaged.iter().map(move |&j| (r.reel, j)))
                .collect();
            let solved =
                match self.reconstruct_group_frames(&layout, reels, g.group, &wants, &mut stats) {
                    Ok(frames) => frames,
                    Err(VaultError::ReelLoss { .. }) => {
                        // Past the budget nothing in the group is solvable.
                        out.unrepairable.extend(fix.iter().map(|r| r.reel));
                        continue;
                    }
                    Err(e) => return Err(e),
                };
            let mut by_reel: BTreeMap<usize, Vec<(usize, ule_raster::GrayImage, bool)>> =
                BTreeMap::new();
            for ((r, j), image, ok) in solved {
                by_reel.entry(r).or_default().push((j, image, ok));
            }
            for rec in fix {
                let mut frames = by_reel.remove(&rec.reel).unwrap_or_default();
                frames.sort_by_key(|&(j, _, _)| j);
                let whole = frames.len() == rec.frames;
                if frames.iter().any(|&(_, _, ok)| !ok) {
                    // Some offset degraded past the budget mid-solve:
                    // leave the reel as scanned rather than splice in
                    // blanks.
                    out.unrepairable.push(rec.reel);
                    continue;
                }
                if whole {
                    // Missing or shape-wrong reel: becomes a whole
                    // pristine reel.
                    reels[rec.reel] = Some(frames.into_iter().map(|(_, image, _)| image).collect());
                    out.frames_reencoded += rec.frames;
                } else {
                    let scans = reels[rec.reel]
                        .as_mut()
                        .expect("partially damaged reel is present");
                    for (j, image, _) in frames {
                        scans[j] = image;
                        out.frames_reencoded += 1;
                    }
                }
                out.reels_rebuilt.push(rec.reel);
            }
        }
        out.recovery_frames_decoded = stats.recovery_frames_decoded;
        self.count_repair(&out);
        Ok(out)
    }

    /// Decode every frame of one reel against the exact header the
    /// layout says it must carry.
    fn audit_reel(&self, layout: &ReelLayout, reels: &ReelScans, r: usize) -> ReelAudit {
        let expected = match layout.parity_role_of(r) {
            Some((g, _)) => layout.parity_reel_frames(g),
            None => layout.reel_frames(r),
        };
        let Some(scans) = reels[r].as_ref() else {
            return ReelAudit {
                present: false,
                shape_ok: false,
                frames: expected,
                damaged: (0..expected).collect(),
                corrected: 0,
                payloads: vec![None; expected],
            };
        };
        if scans.len() != expected {
            return ReelAudit {
                present: true,
                shape_ok: false,
                frames: expected,
                damaged: (0..expected).collect(),
                corrected: 0,
                payloads: vec![None; expected],
            };
        }
        let geom = self.system.medium.geometry;
        let cap = layout.chunk_cap;
        let offsets: Vec<usize> = (0..expected).collect();
        let decoded: Vec<(Option<Vec<u8>>, usize)> =
            ule_par::map(self.system.threads, &offsets, |&j| {
                let want = match layout.parity_role_of(r) {
                    Some((g, _)) => layout.parity_frame_header(g, j),
                    None => layout.frame_info(r * layout.reel_capacity + j).header,
                };
                match decode_emblem(&geom, &scans[j]) {
                    Ok((h, mut payload, ds)) if h == want => {
                        payload.resize(cap, 0);
                        (Some(payload), ds.rs_corrected)
                    }
                    _ => (None, 0),
                }
            });
        let mut audit = ReelAudit {
            present: true,
            shape_ok: true,
            frames: expected,
            damaged: Vec::new(),
            corrected: 0,
            payloads: Vec::with_capacity(expected),
        };
        for (j, (payload, corrected)) in decoded.into_iter().enumerate() {
            audit.corrected += corrected;
            if payload.is_none() {
                audit.damaged.push(j);
            }
            audit.payloads.push(payload);
        }
        audit
    }

    fn count_scrub(&self, report: &ScrubReport) {
        let (clean, correctable, lost) = report.counts();
        let t = &self.system.telemetry;
        t.add("scrub.reels_clean", clean as u64);
        t.add("scrub.reels_correctable", correctable as u64);
        t.add("scrub.reels_lost", lost as u64);
        t.add("scrub.frames_damaged", report.damaged_frames() as u64);
        t.add(
            "scrub.parity_mismatch_offsets",
            report
                .groups
                .iter()
                .map(|g| g.parity_mismatch_offsets as u64)
                .sum(),
        );
    }

    fn count_repair(&self, report: &RepairReport) {
        let t = &self.system.telemetry;
        t.add("repair.reels_rebuilt", report.reels_rebuilt.len() as u64);
        t.add("repair.frames_reencoded", report.frames_reencoded as u64);
        t.add(
            "repair.reels_unrepairable",
            report.unrepairable.len() as u64,
        );
    }
}
