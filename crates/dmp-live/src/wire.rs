//! Wire format for live streaming: fixed-size framed video packets.
//!
//! Every frame is exactly `packet_bytes` long (the paper uses 1448-byte
//! packets on the Internet): a 24-byte header — magic, stream sequence
//! number, server generation timestamp — followed by padding that stands in
//! for media payload. Fixed-size frames keep the "packets per second"
//! accounting of the paper exact over a byte-stream transport.

use bytes::{Buf, BufMut, BytesMut};

/// Frame magic (sanity check against desynchronised streams).
pub const MAGIC: u32 = 0xD3_57_2E_A1;

/// Header bytes preceding the padding payload.
pub const HEADER_BYTES: usize = 24;

/// One framed video packet: the scheme's own packet (stream sequence number
/// and generation time at the server, ns since the stream epoch).
pub type Frame = dmp_core::scheme::StreamPacket;

/// Encode `frame` as exactly `packet_bytes` bytes into `dst`.
///
/// # Panics
/// Panics if `packet_bytes < HEADER_BYTES`.
pub fn encode(frame: &Frame, packet_bytes: usize, dst: &mut BytesMut) {
    assert!(packet_bytes >= HEADER_BYTES, "packet too small for header");
    dst.reserve(packet_bytes);
    dst.put_u32(MAGIC);
    dst.put_u32(packet_bytes as u32);
    dst.put_u64(frame.seq);
    dst.put_u64(frame.gen_ns);
    dst.put_bytes(0, packet_bytes - HEADER_BYTES);
}

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not yet hold a complete frame; read more bytes.
    Incomplete,
    /// The stream is corrupt (bad magic or inconsistent length).
    Corrupt,
}

/// Try to decode one frame from the front of `src`, consuming it on success.
pub fn decode(src: &mut BytesMut) -> Result<Frame, DecodeError> {
    if src.len() < HEADER_BYTES {
        return Err(DecodeError::Incomplete);
    }
    let magic = u32::from_be_bytes(src[0..4].try_into().expect("len checked"));
    if magic != MAGIC {
        return Err(DecodeError::Corrupt);
    }
    let len = u32::from_be_bytes(src[4..8].try_into().expect("len checked")) as usize;
    if len < HEADER_BYTES {
        return Err(DecodeError::Corrupt);
    }
    if src.len() < len {
        return Err(DecodeError::Incomplete);
    }
    src.advance(8);
    let seq = src.get_u64();
    let gen_ns = src.get_u64();
    src.advance(len - HEADER_BYTES);
    Ok(Frame { seq, gen_ns })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = BytesMut::new();
        let f = Frame {
            seq: 42,
            gen_ns: 123_456_789,
        };
        encode(&f, 1448, &mut buf);
        assert_eq!(buf.len(), 1448);
        let got = decode(&mut buf).unwrap();
        assert_eq!(got, f);
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frame_is_incomplete() {
        let mut buf = BytesMut::new();
        encode(&Frame { seq: 1, gen_ns: 2 }, 100, &mut buf);
        let mut partial = buf.split_to(50);
        assert_eq!(decode(&mut partial), Err(DecodeError::Incomplete));
    }

    #[test]
    fn several_frames_in_one_buffer() {
        let mut buf = BytesMut::new();
        for seq in 0..5u64 {
            encode(
                &Frame {
                    seq,
                    gen_ns: seq * 10,
                },
                64,
                &mut buf,
            );
        }
        for seq in 0..5u64 {
            assert_eq!(decode(&mut buf).unwrap().seq, seq);
        }
        assert_eq!(decode(&mut buf), Err(DecodeError::Incomplete));
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut buf = BytesMut::new();
        buf.put_u32(0xdeadbeef);
        buf.put_bytes(0, 60);
        assert_eq!(decode(&mut buf), Err(DecodeError::Corrupt));
    }

    #[test]
    #[should_panic(expected = "packet too small")]
    fn tiny_packets_rejected() {
        let mut buf = BytesMut::new();
        encode(&Frame { seq: 0, gen_ns: 0 }, 8, &mut buf);
    }

    /// Frames decode identically however the byte stream is split into
    /// reads (the client feeds arbitrary chunks into the decoder).
    /// Randomized over seeded cases for reproducibility.
    #[test]
    fn decoding_is_split_invariant() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        for case in 0..128u64 {
            let mut rng = SmallRng::seed_from_u64(0x5eed_713e ^ case);
            let n_frames = 1 + (rng.next_u64() as usize) % 19;
            let frames: Vec<(u64, u64)> = (0..n_frames)
                .map(|_| (rng.next_u64(), rng.next_u64()))
                .collect();
            let pkt_len = 24 + (rng.next_u64() as usize) % 232;
            let n_cuts = 1 + (rng.next_u64() as usize) % 39;
            let cuts: Vec<usize> = (0..n_cuts)
                .map(|_| 1 + (rng.next_u64() as usize) % 63)
                .collect();

            let mut stream = BytesMut::new();
            for &(seq, gen_ns) in &frames {
                encode(&Frame { seq, gen_ns }, pkt_len, &mut stream);
            }
            let bytes = stream.freeze();
            // Feed in arbitrary-sized chunks.
            let mut buf = BytesMut::new();
            let mut decoded = Vec::new();
            let mut pos = 0usize;
            let mut cut_iter = cuts.iter().cycle();
            while pos < bytes.len() {
                let step = (*cut_iter.next().unwrap()).min(bytes.len() - pos);
                buf.extend_from_slice(&bytes[pos..pos + step]);
                pos += step;
                loop {
                    match decode(&mut buf) {
                        Ok(f) => decoded.push((f.seq, f.gen_ns)),
                        Err(DecodeError::Incomplete) => break,
                        Err(DecodeError::Corrupt) => panic!("corrupt at case {case}"),
                    }
                }
            }
            assert_eq!(decoded, frames, "case {case}");
            assert!(buf.is_empty(), "case {case}");
        }
    }
}
