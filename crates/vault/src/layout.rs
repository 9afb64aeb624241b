//! Reel layout: the frozen mapping between stream chunks, global frame
//! positions, and reels.
//!
//! A vault medium carries three content streams in one fixed frame
//! sequence — system (DBDecode), index (catalog), data (segment records)
//! — each laid out by its [`StreamPlan`], the emission layout
//! `ule_emblem::stream` alone owns (every group's data emblems followed
//! by its outer-parity emblems). The sequence is split into content reels
//! of `reel_capacity` frames, and every group of `group_reels` content
//! reels gets `group_parity` cross-reel parity reels (the `m` of
//! `RS(k+m, k)`) appended after all content reels, group-major then
//! slot-major; each parity reel is one dense `ReelParity` stream.
//!
//! Everything here is *derivable*: given the Bootstrap's vault manifest
//! (stream byte lengths, reel capacity, group size) and the emblem
//! geometry, the layout names the exact [`EmblemHeader`] of any frame
//! position without decoding it — [`StreamPlan::header`], the one the
//! encoder stamps — which is what lets a lost reel's frames be re-encoded
//! bit-for-bit from cross-reel parity, and what every vault reader holds
//! a decoded frame against before using it.

use crate::VaultError;
use micr_olonys::VaultManifest;
use ule_emblem::stream::StreamPlan;
use ule_emblem::{EmblemHeader, EmblemKind};
use ule_gf256::RsCode;

/// Which content stream a frame belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamId {
    System,
    Index,
    Data,
}

impl StreamId {
    /// The emblem kind of the stream's *data* slots (parity slots always
    /// carry [`EmblemKind::Parity`]).
    pub fn kind(self) -> EmblemKind {
        match self {
            StreamId::System => EmblemKind::System,
            StreamId::Index => EmblemKind::Index,
            StreamId::Data => EmblemKind::Data,
        }
    }
}

/// Everything known about one global frame position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    pub stream: StreamId,
    /// Emission position within the stream (== the header's `index`).
    pub emission: usize,
    /// The exact header the emblem at this position carries.
    pub header: EmblemHeader,
}

/// The header a decoded shelf frame must carry to count where it is
/// read — the vault's one frame verdict; any other header is a failed
/// scan.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stamp<'a> {
    /// A positional read at `(reel, offset)`: exactly `header_at` there.
    At(EmblemHeader),
    /// An order-tolerant whole-stream read: a header of `kind` or a parity
    /// header that `plan` places ([`StreamPlan::slot_of`]).
    Stream(&'a StreamPlan, EmblemKind),
}

impl Stamp<'_> {
    pub(crate) fn admits(&self, h: &EmblemHeader) -> bool {
        match *self {
            Stamp::At(stamped) => *h == stamped,
            Stamp::Stream(plan, kind) => {
                plan.slot_of(h).is_some() && (h.kind == kind || h.kind == EmblemKind::Parity)
            }
        }
    }
}

/// The frozen reel layout (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReelLayout {
    /// Payload bytes per emblem.
    pub chunk_cap: usize,
    /// Stream byte lengths.
    pub sys_len: usize,
    pub index_len: usize,
    pub data_len: usize,
    /// Whether the content streams carry the outer RS(20,17) code.
    pub outer_parity: bool,
    /// Frames per content reel (`0` = single reel holding everything).
    pub reel_capacity: usize,
    /// Content reels per parity group (`0` = no parity reels).
    pub group_reels: usize,
    /// Parity reels per group — the `m` of `RS(k+m, k)`.
    pub group_parity: usize,
}

impl ReelLayout {
    /// Build the layout from a parsed manifest plus the geometry facts the
    /// Bootstrap carries anyway. The manifest is archived bytes, hostile
    /// until checked: a stream no encoder could have written (its last
    /// emission index past `u16::MAX`) or a reel group wider than an
    /// `RS(n ≤ 255)` codeword is a [`VaultError::ShapeMismatch`], not a
    /// layout to size buffers from.
    pub fn from_manifest(
        m: &VaultManifest,
        chunk_cap: usize,
        outer_parity: bool,
    ) -> Result<Self, VaultError> {
        for (stream, len) in [
            ("system", m.sys_len),
            ("index", m.index_len),
            ("data", m.data_len),
        ] {
            if StreamPlan::checked(len, chunk_cap, outer_parity).is_none() {
                return Err(VaultError::ShapeMismatch(format!(
                    "manifest's {len}-byte {stream} stream overflows the 16-bit emblem index"
                )));
            }
        }
        let layout = Self {
            chunk_cap,
            sys_len: m.sys_len,
            index_len: m.index_len,
            data_len: m.data_len,
            outer_parity,
            reel_capacity: m.reel_capacity,
            group_reels: m.group_reels,
            group_parity: m.parity_reels,
        };
        let widest = layout.group_members(0).len().saturating_add(m.parity_reels);
        if layout.groups() > 0 && m.parity_reels > 0 && widest > 255 {
            return Err(VaultError::ShapeMismatch(format!(
                "manifest's {widest}-reel parity group exceeds the 255-symbol RS codeword"
            )));
        }
        Ok(layout)
    }

    /// The emission layout of content stream `stream`.
    pub fn plan(&self, stream: StreamId) -> StreamPlan {
        let len = match stream {
            StreamId::System => self.sys_len,
            StreamId::Index => self.index_len,
            StreamId::Data => self.data_len,
        };
        StreamPlan::new(len, self.chunk_cap, self.outer_parity)
    }

    pub fn sys_frames(&self) -> usize {
        self.plan(StreamId::System).total_emblems()
    }
    pub fn index_frames(&self) -> usize {
        self.plan(StreamId::Index).total_emblems()
    }
    pub fn data_frames(&self) -> usize {
        self.plan(StreamId::Data).total_emblems()
    }

    /// Total frames across the content reels.
    pub fn total_frames(&self) -> usize {
        self.sys_frames() + self.index_frames() + self.data_frames()
    }

    /// Number of content reels.
    pub fn content_reels(&self) -> usize {
        if self.reel_capacity == 0 {
            1
        } else {
            self.total_frames().div_ceil(self.reel_capacity).max(1)
        }
    }

    /// Number of parity groups (full or partial).
    pub fn groups(&self) -> usize {
        if self.group_reels == 0 || self.reel_capacity == 0 {
            0
        } else {
            self.content_reels().div_ceil(self.group_reels)
        }
    }

    /// Number of cross-reel parity reels (`group_parity` per group).
    pub fn parity_reels(&self) -> usize {
        self.groups() * self.group_parity
    }

    /// Total reels: content reels first, then parity reels in group order.
    pub fn total_reels(&self) -> usize {
        self.content_reels() + self.parity_reels()
    }

    /// Frames on content reel `r`.
    pub fn reel_frames(&self, r: usize) -> usize {
        let total = self.total_frames();
        if self.reel_capacity == 0 {
            return total;
        }
        total
            .saturating_sub(r * self.reel_capacity)
            .min(self.reel_capacity)
    }

    /// `(reel, offset)` of global frame position `pos`.
    pub fn reel_of(&self, pos: usize) -> (usize, usize) {
        if self.reel_capacity == 0 {
            (0, pos)
        } else {
            (pos / self.reel_capacity, pos % self.reel_capacity)
        }
    }

    /// Parity group of reel `r`, content or parity.
    pub fn group_of(&self, r: usize) -> usize {
        match self.parity_role_of(r) {
            Some((g, _)) => g,
            None => r / self.group_reels.max(1),
        }
    }

    /// Content reel indices of parity group `g`.
    pub fn group_members(&self, g: usize) -> std::ops::Range<usize> {
        let start = g * self.group_reels;
        start..((g + 1) * self.group_reels).min(self.content_reels())
    }

    /// Reel index of group `g`'s parity reel in slot `slot`
    /// (`0..group_parity`). Parity reels sit after all content reels,
    /// group-major then slot-major.
    pub fn parity_reel_of(&self, g: usize, slot: usize) -> usize {
        self.content_reels() + g * self.group_parity + slot
    }

    /// Reel ids of group `g`'s parity reels, in slot order.
    pub fn parity_reels_of(&self, g: usize) -> std::ops::Range<usize> {
        let start = self.parity_reel_of(g, 0);
        start..start + self.group_parity
    }

    /// `(group, slot)` of reel `r` when it is a parity reel, `None` for
    /// content reels.
    pub fn parity_role_of(&self, r: usize) -> Option<(usize, usize)> {
        let m = self.group_parity;
        if r < self.content_reels() || m == 0 {
            return None;
        }
        let p = r - self.content_reels();
        Some((p / m, p % m))
    }

    /// Frames on reel `r`, content or parity.
    pub fn frames_on(&self, r: usize) -> usize {
        match self.parity_role_of(r) {
            Some((g, _)) => self.parity_reel_frames(g),
            None => self.reel_frames(r),
        }
    }

    /// The exact header frame `j` of reel `r` carries, content or parity.
    pub fn header_at(&self, r: usize, j: usize) -> EmblemHeader {
        match self.parity_role_of(r) {
            Some((g, _)) => self.parity_frame_header(g, j),
            None => self.frame_info(r * self.reel_capacity + j).header,
        }
    }

    /// Group `g`'s reels in codeword order: the content members, then the
    /// parity reels in slot order.
    pub fn codeword_reels(&self, g: usize) -> Vec<usize> {
        self.group_members(g)
            .chain(self.parity_reels_of(g))
            .collect()
    }

    /// Group `g`'s cross-reel `RS(k+m, k)` code: `k` content members,
    /// `m = group_parity` parity reels.
    pub(crate) fn group_code(&self, g: usize) -> RsCode {
        let k = self.group_members(g).len();
        RsCode::new(k + self.group_parity, k)
    }

    /// Group `g`'s `m` cross-reel parity streams, slot order: one
    /// [`RsCode::parity_of`] over the members' frame payloads
    /// (`chunk_of(reel, offset)`), each zero-padded to `chunk_cap` and
    /// the stream to [`ReelLayout::parity_stream_len`].
    pub fn group_parity_streams<'a>(
        &self,
        g: usize,
        chunk_of: impl Fn(usize, usize) -> &'a [u8],
    ) -> Vec<Vec<u8>> {
        let (cap, len) = (self.chunk_cap, self.parity_stream_len(g));
        let streams: Vec<Vec<u8>> = self
            .group_members(g)
            .map(|r| {
                let mut bytes = Vec::with_capacity(len);
                for j in 0..self.reel_frames(r) {
                    bytes.extend_from_slice(chunk_of(r, j));
                    bytes.resize((j + 1) * cap, 0);
                }
                bytes.resize(len, 0);
                bytes
            })
            .collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        self.group_code(g).parity_of(&refs)
    }

    /// The exact header of frame `j` on any of group `g`'s parity reels:
    /// the dense (`ReelParity`, no outer code) emission the archive
    /// encoder stamps, reconstructible without decoding — which is what
    /// lets a lost *parity* reel be re-encoded bit-for-bit during repair.
    pub fn parity_frame_header(&self, g: usize, j: usize) -> EmblemHeader {
        StreamPlan::new(self.parity_stream_len(g), self.chunk_cap, false)
            .header(EmblemKind::ReelParity, j)
    }

    /// Frames on each of group `g`'s parity reels.
    pub fn parity_reel_frames(&self, g: usize) -> usize {
        self.parity_stream_len(g) / self.chunk_cap.max(1)
    }

    /// Byte length of group `g`'s cross-reel parity stream: the longest
    /// member reel, in padded-chunk bytes. (Members shorter than that —
    /// only ever the final reel — contribute zero chunks beyond their
    /// end.)
    pub fn parity_stream_len(&self, g: usize) -> usize {
        self.group_members(g)
            .map(|r| self.reel_frames(r))
            .max()
            .unwrap_or(0)
            * self.chunk_cap
    }

    /// Global frame position of emission slot `emission` in `stream`.
    pub fn position(&self, stream: StreamId, emission: usize) -> usize {
        let base = match stream {
            StreamId::System => 0,
            StreamId::Index => self.sys_frames(),
            StreamId::Data => self.sys_frames() + self.index_frames(),
        };
        base + emission
    }

    /// Global frame position of `stream`'s data chunk `chunk`.
    pub fn chunk_position(&self, stream: StreamId, chunk: usize) -> usize {
        self.position(
            stream,
            ule_emblem::stream::chunk_global_index(chunk, self.outer_parity),
        )
    }

    /// Decode a global frame position back to its stream, emission slot,
    /// and exact header. Panics if `pos >= total_frames()`.
    pub fn frame_info(&self, pos: usize) -> FrameInfo {
        assert!(pos < self.total_frames(), "position {pos} beyond layout");
        let (sys, index) = (self.sys_frames(), self.index_frames());
        let (stream, emission) = if pos < sys {
            (StreamId::System, pos)
        } else if pos < sys + index {
            (StreamId::Index, pos - sys)
        } else {
            (StreamId::Data, pos - sys - index)
        };
        FrameInfo {
            stream,
            emission,
            header: self.plan(stream).header(stream.kind(), emission),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ReelLayout {
        ReelLayout {
            chunk_cap: 100,
            sys_len: 250,   // 3 chunks -> 1 group -> 6 frames with parity
            index_len: 90,  // 1 chunk  -> 4 frames
            data_len: 2405, // 25 chunks -> 2 groups -> 31 frames
            outer_parity: true,
            reel_capacity: 10,
            group_reels: 2,
            group_parity: 1,
        }
    }

    #[test]
    fn frame_counts() {
        let l = layout();
        assert_eq!(l.sys_frames(), 6);
        assert_eq!(l.index_frames(), 4);
        assert_eq!(l.data_frames(), 31);
        assert_eq!(l.total_frames(), 41);
        assert_eq!(l.content_reels(), 5); // 41 frames / 10 per reel
        assert_eq!(l.reel_frames(4), 1);
        assert_eq!(l.groups(), 3); // groups {0,1} {2,3} {4}
        assert_eq!(l.parity_reels(), 3);
        assert_eq!(l.total_reels(), 8);
        assert_eq!(l.parity_reel_of(1, 0), 6);
        assert_eq!(l.group_members(2), 4..5);
        assert_eq!(l.parity_stream_len(0), 1000);
        assert_eq!(l.parity_stream_len(2), 100);
        assert_eq!(l.parity_role_of(4), None);
        assert_eq!(l.parity_role_of(6), Some((1, 0)));
    }

    #[test]
    fn multi_parity_reel_mapping() {
        let l = ReelLayout {
            group_parity: 2,
            ..layout()
        };
        // Same content geometry, twice the parity reels.
        assert_eq!(l.content_reels(), 5);
        assert_eq!(l.groups(), 3);
        assert_eq!(l.parity_reels(), 6);
        assert_eq!(l.total_reels(), 11);
        // Group-major, slot-major: g0 -> 5,6  g1 -> 7,8  g2 -> 9,10.
        assert_eq!(l.parity_reel_of(0, 1), 6);
        assert_eq!(l.parity_reel_of(1, 0), 7);
        assert_eq!(l.parity_reels_of(2), 9..11);
        assert_eq!(l.parity_role_of(8), Some((1, 1)));
        assert_eq!(l.parity_role_of(3), None);
        // Parity frame headers are dense ReelParity emissions.
        let h = l.parity_frame_header(0, 3);
        assert_eq!(h.kind, EmblemKind::ReelParity);
        assert_eq!(h.index, 3);
        assert_eq!(h.payload_len, 100);
        assert_eq!(h.total_len, 1000);
        assert_eq!(l.parity_reel_frames(0), 10);
        assert_eq!(l.parity_reel_frames(2), 1);
        // The per-reel facts answer for content and parity reels alike.
        assert_eq!(l.codeword_reels(1), vec![2, 3, 7, 8]);
        assert_eq!(l.group_of(8), 1);
        assert_eq!((l.frames_on(4), l.frames_on(6), l.frames_on(9)), (1, 10, 1));
        assert_eq!(l.header_at(6, 3), h);
        assert_eq!(l.header_at(3, 7), l.frame_info(37).header);
    }

    #[test]
    fn headers_match_the_encoder_emission_order() {
        let l = layout();
        // System stream, tail group of 3 chunks: data at emissions 0..3,
        // parity directly after at 3..6.
        let f = l.frame_info(0);
        assert_eq!(f.stream, StreamId::System);
        assert_eq!(f.header.kind, EmblemKind::System);
        assert_eq!(f.header.payload_len, 100);
        let f = l.frame_info(2);
        assert_eq!(f.header.payload_len, 50); // 250 - 2*100
        let f = l.frame_info(3);
        assert_eq!(f.header.kind, EmblemKind::Parity);
        assert_eq!(f.header.index, 3);
        // Index stream starts at position 6.
        let f = l.frame_info(6);
        assert_eq!(f.stream, StreamId::Index);
        assert_eq!(f.header.kind, EmblemKind::Index);
        assert_eq!(f.header.payload_len, 90);
        // Data stream: chunk 17 opens group 1 at emission 20.
        let pos = l.chunk_position(StreamId::Data, 17);
        assert_eq!(pos, 10 + 20);
        let f = l.frame_info(pos);
        assert_eq!(f.header.kind, EmblemKind::Data);
        assert_eq!(f.header.index, 20);
        assert_eq!(f.header.group, 1);
        // Data group 1 holds 8 chunks; its parity sits right after them.
        let f = l.frame_info(10 + 28);
        assert_eq!(f.header.kind, EmblemKind::Parity);
        assert_eq!(f.header.group, 1);
    }

    #[test]
    fn reel_mapping_is_positional() {
        let l = layout();
        assert_eq!(l.reel_of(0), (0, 0));
        assert_eq!(l.reel_of(37), (3, 7));
        assert_eq!(l.group_of(3), 1);
    }

    #[test]
    fn single_reel_no_parity_layout() {
        let l = ReelLayout {
            reel_capacity: 0,
            group_reels: 0,
            ..layout()
        };
        assert_eq!(l.content_reels(), 1);
        assert_eq!(l.parity_reels(), 0);
        assert_eq!(l.reel_of(40), (0, 40));
        assert_eq!(l.reel_frames(0), 41);
    }

    #[test]
    fn dense_layout_headers() {
        let l = ReelLayout {
            outer_parity: false,
            ..layout()
        };
        assert_eq!(l.sys_frames(), 3);
        let f = l.frame_info(3); // index stream, dense
        assert_eq!(f.stream, StreamId::Index);
        assert_eq!(f.header.index, 0);
    }
}
