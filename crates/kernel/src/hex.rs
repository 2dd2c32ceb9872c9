//! The one hex codec of the trace and checkpoint encodings: byte
//! strings ride their JSON as lowercase hex. Both directions are table
//! lookups; the decoder also takes uppercase digits.

use serde::{DeError, Value};

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Nibble value of every byte; `0xff` marks a non-digit.
const NIBBLE: [u8; 256] = {
    let mut t = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        t[DIGITS[i] as usize] = i as u8;
        t[DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    t
};

/// Encodes `bytes` as a lowercase hex string value.
pub(crate) fn hex(bytes: &[u8]) -> Value {
    let mut s = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize]);
        s.push(DIGITS[(b & 0xf) as usize]);
    }
    Value::Str(String::from_utf8(s).expect("hex digits are ascii"))
}

/// Decodes a hex string value produced by [`hex`].
pub(crate) fn unhex(v: &Value) -> Result<Vec<u8>, DeError> {
    let s = match v {
        Value::Str(s) => s.as_bytes(),
        _ => return Err(DeError::msg("expected hex string")),
    };
    if s.len() % 2 != 0 {
        return Err(DeError::msg("odd-length hex string"));
    }
    s.chunks_exact(2)
        .map(|p| {
            let (hi, lo) = (NIBBLE[p[0] as usize], NIBBLE[p[1] as usize]);
            if (hi | lo) > 0xf {
                return Err(DeError::msg("bad hex digit"));
            }
            Ok(hi << 4 | lo)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_roundtrips_in_lowercase() {
        let all: Vec<u8> = (0..=255).collect();
        let v = hex(&all);
        let Value::Str(s) = &v else { unreachable!() };
        assert_eq!(&s[..8], "00010203");
        assert_eq!(&s[s.len() - 4..], "feff");
        assert_eq!(unhex(&v).unwrap(), all);
        assert_eq!(unhex(&Value::Str("ABcd".into())).unwrap(), vec![0xab, 0xcd]);
    }

    #[test]
    fn malformed_hex_is_rejected() {
        for bad in ["abc", "0g", "+1", " 1", "é"] {
            assert!(unhex(&Value::Str(bad.into())).is_err(), "{bad}");
        }
        assert!(unhex(&Value::UInt(1)).is_err());
    }
}
