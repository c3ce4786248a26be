//! Pins the pseudo-random pattern stream bit for bit: the SHA-256 of the
//! first 2000 patterns `pseudo_random_patterns` emits at the widths of
//! the paper's circuits (c17 5, c432 36, c2670 233, c5315 178, c7552
//! 207) under the paper's polynomial, and at a width of two words plus a
//! bit under a degree-63 trinomial. Any change to how the stream is
//! generated or cut into patterns fails here.

use bist::engine::digest::Sha256;
use bist::lfsr::{paper_poly, pseudo_random_patterns, Polynomial};

/// SHA-256 over the patterns' `0`/`1` text, one line per pattern.
fn stream_digest(poly: Polynomial, width: usize, count: usize) -> String {
    let mut hash = Sha256::new();
    for pattern in pseudo_random_patterns(poly, width, count) {
        hash.update(pattern.to_string().as_bytes());
        hash.update(b"\n");
    }
    hash.finish_hex()
}

#[test]
fn paper_poly_streams_are_pinned() {
    let pins = [
        (
            5,
            "db2fa04af3f986bbbc85fa4aec1a3546a729a6d9f7b13367053031aabf12ff31",
        ),
        (
            36,
            "8e8add38d98a8e22d4dc347a3ffd4bfa45e2c8b48d87952a747291823530aa5c",
        ),
        (
            178,
            "cf2d6535d097bd904f57d6b62da8fc6e2cc2dba92f6492d93543b8435e95d0ff",
        ),
        (
            207,
            "1f3a02e4caab6220702ebb761e55db9dbc079d161389456055a455ba5c7eef7e",
        ),
        (
            233,
            "cac8ee8d5391a6c8b0472735f25d9aef053390fcd9e4d8220443f9ef98f0da45",
        ),
    ];
    for (width, pin) in pins {
        assert_eq!(
            stream_digest(paper_poly(), width, 2000),
            pin,
            "width {width}"
        );
    }
}

#[test]
fn degree_63_stream_is_pinned() {
    // x^63 + x + 1 is a primitive trinomial; `primitive_poly` tabulates
    // degrees 2..=32 only
    let poly = Polynomial::from_exponents(&[63, 1, 0]);
    assert_eq!(
        stream_digest(poly, 70, 2000),
        "ea1b9e39c30ebc053448073f9d9db0c035271fa0899fe6c5a7ea99820e6a6cb3"
    );
}
