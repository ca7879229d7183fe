//! The cache/artifact codec contract, with the leaf-type impls the orphan
//! rule keeps beside the trait.

use crate::json::{Json, JsonRead};

/// Values that can round-trip through the cache as JSON.
pub trait JsonCodec: Sized {
    /// Serialise for cache storage / artifact emission.
    fn to_json(&self) -> Json;
    /// Deserialise a cached payload; `None` turns the hit into a miss. One
    /// body reads both a tree (`&Json`) and a cache hit's tape
    /// ([`crate::json::Value`]).
    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self>;
}

// Blanket-ish codecs for common leaf types used by ports.

impl JsonCodec for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        json.as_f64()
    }
}

impl JsonCodec for Option<f64> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => Json::Num(*v),
            None => Json::Null,
        }
    }
    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        if json.is_null() {
            Some(None)
        } else {
            json.as_f64().map(Some)
        }
    }
}

impl JsonCodec for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        json.as_u64()
    }
}

/// Generic sequence codec (subsumes the old `Vec<f64>`-only impl, byte-
/// compatible with entries it cached): shard-fanned jobs return one summary
/// per shard, so sequences of codec-able values must round-trip as a unit.
impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(JsonCodec::to_json))
    }
    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        json.items()?.map(T::from_json).collect()
    }
}
