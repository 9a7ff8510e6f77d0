//! Property test for the flat-object dialect: whatever field list a
//! writer emits with [`escape`] and `Display`, [`FlatObject`] reads back
//! field for field — strings with every escape and multi-byte text,
//! integers at the edges of `u64`, floats in their shortest round-trip
//! form — and the owning adaptor agrees with it.

use iolb_records::jsonl::{escape, parse_flat_object, Field, FlatObject, Value};
use proptest::prelude::*;

/// What a drawn field holds.
#[derive(Debug, Clone)]
enum Drawn {
    Text(String),
    Int(u64),
    Float(f64),
}

/// Strings heavy in the characters the dialect escapes, plus multi-byte
/// text and the structural characters of the grammar itself.
fn text() -> impl Strategy<Value = String> {
    const ALPHABET: [&str; 16] =
        ["\"", "\\", "\n", "\t", "\r", "/", "a", "Z", " ", "{", "}", ":", ",", "é", "日本", "🚀"];
    prop::collection::vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn value() -> impl Strategy<Value = Drawn> {
    prop_oneof![
        text().prop_map(Drawn::Text),
        prop_oneof![Just(0u64), Just(u64::MAX), Just((1 << 53) + 1), any::<u64>(), 0u64..1000]
            .prop_map(Drawn::Int),
        // Any finite bit pattern: subnormals, both zeros, huge exponents.
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Drawn::Float),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_fields_read_back_field_for_field(
        drawn in prop::collection::vec((text(), value()), 0..10),
        spaced in any::<bool>(),
    ) {
        // Keys must be distinct: suffix each with its position.
        let fields: Vec<(String, Drawn)> =
            drawn.into_iter().enumerate().map(|(i, (k, v))| (format!("{k}{i}"), v)).collect();
        let (colon, comma) = if spaced { (" :\t", " ,\r\n ") } else { (":", ",") };
        let body: Vec<String> = fields
            .iter()
            .map(|(key, value)| {
                let value = match value {
                    Drawn::Text(s) => format!("\"{}\"", escape(s)),
                    Drawn::Int(i) => i.to_string(),
                    Drawn::Float(f) => f.to_string(),
                };
                format!("\"{}\"{colon}{value}", escape(key))
            })
            .collect();
        let line = format!("{{{}}}", body.join(comma));

        let obj = FlatObject::parse(&line).map_err(TestCaseError::fail)?;
        let owned = parse_flat_object(&line).map_err(TestCaseError::fail)?;
        prop_assert_eq!(obj.fields().len(), fields.len());
        prop_assert_eq!(owned.len(), fields.len());
        for (((key, want), (got_key, got)), (owned_key, owned)) in
            fields.iter().zip(obj.fields()).zip(&owned)
        {
            prop_assert_eq!(&**got_key, key.as_str());
            prop_assert_eq!(owned_key, key);
            match want {
                Drawn::Text(s) => {
                    prop_assert_eq!(obj.str(key), Ok(s.as_str()));
                    prop_assert_eq!(owned, &Value::Str(s.clone().into()));
                    // Copied only when an escape made it necessary.
                    let escaped = escape(s) != *s;
                    prop_assert_eq!(
                        matches!(got, Field::Str(std::borrow::Cow::Owned(_))),
                        escaped
                    );
                }
                Drawn::Int(i) => {
                    prop_assert_eq!(obj.u64(key), Ok(*i));
                    prop_assert_eq!(owned.as_u64(key), Ok(*i));
                }
                Drawn::Float(f) => {
                    prop_assert_eq!(obj.f64(key).map(f64::to_bits), Ok(f.to_bits()));
                    prop_assert_eq!(owned.as_f64(key).map(f64::to_bits), Ok(f.to_bits()));
                }
            }
        }
        // A repeated key is the one thing the writer above cannot produce.
        if let Some((key, _)) = fields.first() {
            let doubled = format!("{{\"{0}\":1,\"{0}\":1}}", escape(key));
            prop_assert!(FlatObject::parse(&doubled).is_err());
        }
    }
}
