// Known-answer and property tests for the crypto substrate.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/bytes.h"
#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "obs/host_profiler.h"
#include "proto/lte/nas.h"

namespace magma {
namespace {

using common::from_hex;
using common::to_hex;

template <std::size_t N>
std::array<std::uint8_t, N> arr(const std::string& hex) {
  const common::Bytes bytes = from_hex(hex);
  EXPECT_EQ(bytes.size(), N) << hex;
  std::array<std::uint8_t, N> out{};
  std::copy(bytes.begin(), bytes.end(), out.begin());
  return out;
}

// --- AES-128 (FIPS-197 Appendix C.1) ---------------------------------------

TEST(Aes128, Fips197KnownAnswer) {
  const crypto::Key128 key = arr<16>("000102030405060708090a0b0c0d0e0f");
  const crypto::Block pt = arr<16>("00112233445566778899aabbccddeeff");
  crypto::Aes128 aes(key);
  const crypto::Block ct = aes.encrypt(pt);
  EXPECT_EQ(to_hex(common::BytesView(ct.data(), ct.size())),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Sp800_38aVector) {
  // NIST SP 800-38A ECB-AES128 block #1.
  const crypto::Key128 key = arr<16>("2b7e151628aed2a6abf7158809cf4f3c");
  const crypto::Block pt = arr<16>("6bc1bee22e409f96e93d7e117393172a");
  crypto::Aes128 aes(key);
  const crypto::Block ct = aes.encrypt(pt);
  EXPECT_EQ(to_hex(common::BytesView(ct.data(), ct.size())),
            "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128, DifferentKeysDifferentCiphertext) {
  const crypto::Block pt = arr<16>("00000000000000000000000000000000");
  crypto::Aes128 a(arr<16>("00000000000000000000000000000001"));
  crypto::Aes128 b(arr<16>("00000000000000000000000000000002"));
  EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

// --- SHA-256 (FIPS 180-4 examples) ------------------------------------------

TEST(Sha256, EmptyString) {
  const auto d = crypto::sha256({});
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const auto data = common::to_bytes("abc");
  const auto d = crypto::sha256(data);
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const auto data = common::to_bytes(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const auto d = crypto::sha256(data);
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  crypto::Sha256 h;
  const common::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  common::Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i));
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    crypto::Sha256 h;
    h.update(common::BytesView(data.data(), split));
    h.update(common::BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), crypto::sha256(data)) << "split=" << split;
  }
}

// --- HMAC-SHA256 (RFC 4231) --------------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const common::Bytes key(20, 0x0b);
  const auto d = crypto::hmac_sha256(key, common::to_bytes("Hi There"));
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const auto d = crypto::hmac_sha256(
      common::to_bytes("Jefe"),
      common::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const common::Bytes key(131, 0xaa);
  const auto d = crypto::hmac_sha256(
      key, common::to_bytes("Test Using Larger Than Block-Size Key - Hash "
                            "Key First"));
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- Milenage (TS 35.207 Test Set 1) ------------------------------------------

struct MilenageVector {
  const char* k;
  const char* rand;
  const char* sqn;
  const char* amf;
  const char* op;
  const char* opc;
  const char* f1;   // MAC-A
  const char* f1s;  // MAC-S
  const char* f2;   // RES
  const char* f3;   // CK
  const char* f4;   // IK
  const char* f5;   // AK
  const char* f5s;  // AK*
};

// Test Set 1 from 3GPP TS 35.207 §4.3 (the canonical conformance vector).
const MilenageVector kVectors[] = {
    {"465b5ce8b199b49faa5f0a2ee238a6bc", "23553cbe9637a89d218ae64dae47bf35",
     "ff9bb4d0b607", "b9b9", "cdc202d5123e20f62b6d676ac72cb318",
     "cd63cb71954a9f4e48a5994e37a02baf", "4a9ffac354dfafb3", "01cfaf9ec4e871e9",
     "a54211d5e3ba50bf", "b40ba9a3c58b2a05bbf0d987b21bf8cb",
     "f769bcd751044604127672711c6d3441", "aa689c648370", "451e8beca43b"},
};

TEST(Milenage, OpcDerivation) {
  for (const auto& v : kVectors) {
    crypto::Milenage milenage(arr<16>(v.k), arr<16>(v.op));
    EXPECT_EQ(to_hex(common::BytesView(milenage.opc().data(), 16)), v.opc);
  }
}

TEST(Milenage, ConformanceVectors) {
  for (const auto& v : kVectors) {
    const crypto::Milenage milenage =
        crypto::Milenage::from_opc(arr<16>(v.k), arr<16>(v.opc));
    const crypto::MilenageOutput out =
        milenage.compute(arr<16>(v.rand), arr<6>(v.sqn), arr<2>(v.amf));
    EXPECT_EQ(to_hex(common::BytesView(out.mac_a.data(), 8)), v.f1);
    EXPECT_EQ(to_hex(common::BytesView(out.mac_s.data(), 8)), v.f1s);
    EXPECT_EQ(to_hex(common::BytesView(out.res.data(), 8)), v.f2);
    EXPECT_EQ(to_hex(common::BytesView(out.ck.data(), 16)), v.f3);
    EXPECT_EQ(to_hex(common::BytesView(out.ik.data(), 16)), v.f4);
    EXPECT_EQ(to_hex(common::BytesView(out.ak.data(), 6)), v.f5);
    EXPECT_EQ(to_hex(common::BytesView(out.ak_s.data(), 6)), v.f5s);
  }
}

TEST(Milenage, OutputsDependOnEveryInput) {
  const crypto::Key128 k = arr<16>("465b5ce8b199b49faa5f0a2ee238a6bc");
  const crypto::Key128 opc = arr<16>("cd63cb71954a9f4e48a5994e37a02baf");
  const auto rand = arr<16>("23553cbe9637a89d218ae64dae47bf35");
  const auto sqn = arr<6>("ff9bb4d0b607");
  const std::array<std::uint8_t, 2> amf = {0xb9, 0xb9};

  const crypto::Milenage base = crypto::Milenage::from_opc(k, opc);
  const auto ref = base.compute(rand, sqn, amf);

  // Flip one bit of each input; every core output must change.
  crypto::Key128 k2 = k;
  k2[3] ^= 0x01;
  EXPECT_NE(crypto::Milenage::from_opc(k2, opc).compute(rand, sqn, amf).res,
            ref.res);
  auto rand2 = rand;
  rand2[15] ^= 0x80;
  EXPECT_NE(base.compute(rand2, sqn, amf).res, ref.res);
  auto sqn2 = sqn;
  sqn2[5] ^= 0x01;
  EXPECT_NE(base.compute(rand, sqn2, amf).mac_a, ref.mac_a);
  // SQN does not feed f2/f5 (they depend on RAND/keys only).
  EXPECT_EQ(base.compute(rand, sqn2, amf).res, ref.res);
}

// --- KDF hierarchy -------------------------------------------------------------

TEST(Kdf, KasmeDeterministicAndKeyDependent) {
  const auto ck = arr<16>("b40ba9a3c58b2a05bbf0d987b21bf8cb");
  const auto ik = arr<16>("f769bcd751044604127672711c6d3441");
  const auto sqn_ak = arr<6>("55f328b43577");
  crypto::ServingNetwork sn;
  const auto kasme1 = crypto::derive_kasme(ck, ik, sn, sqn_ak);
  const auto kasme2 = crypto::derive_kasme(ck, ik, sn, sqn_ak);
  EXPECT_EQ(kasme1, kasme2);

  crypto::ServingNetwork other;
  other.plmn = "00102";
  EXPECT_NE(kasme1, crypto::derive_kasme(ck, ik, other, sqn_ak));
}

// Pins the S string of every derivation (FC, parameters, 2-byte lengths):
// the UE and the AGW call the same functions, so a wrong S would still
// attach. CK, IK and SQN xor AK are TS 35.207 Test Set 1's; the digests
// match an independent HMAC-SHA256 over the TS 33.220 B.2 layout.
TEST(Kdf, KnownAnswers) {
  const auto hex = [](const crypto::Key256& key) {
    return to_hex(common::BytesView(key.data(), key.size()));
  };
  const auto ck = arr<16>("b40ba9a3c58b2a05bbf0d987b21bf8cb");
  const auto ik = arr<16>("f769bcd751044604127672711c6d3441");
  const auto sqn_ak = arr<6>("55f328b43577");
  crypto::ServingNetwork sn;
  sn.plmn = "00101";
  const crypto::Key256 kasme = crypto::derive_kasme(ck, ik, sn, sqn_ak);
  EXPECT_EQ(hex(kasme),
            "67ec93d15ffd3b36b6d9a582fb077393a2ae01db77a673c823dd559f3fcec2f0");
  sn.plmn = "00102";
  EXPECT_EQ(hex(crypto::derive_kasme(ck, ik, sn, sqn_ak)),
            "31b65e816e55a310b045fe17547f51a79d595df63641b1d3ccad6b100f11dc2a");
  EXPECT_EQ(hex(crypto::derive_k_nas_int(kasme, crypto::NasAlgorithm::kEia2)),
            "0cc9bf8eccd5ef99fb4fa4202ac151dcdd3bc8e7a91a818508e23c633fe7103e");
  EXPECT_EQ(hex(crypto::derive_k_nas_enc(kasme, crypto::NasAlgorithm::kEea2)),
            "88f5443e6784a0951df72c775e5b16fcf654e3fc3ed54db8520d6fc77c2af4b4");
  EXPECT_EQ(hex(crypto::derive_k_enb(kasme, 0)),
            "3143b802343c3647875f9f64d2dbc0c9a5df3a928b71908dd239572569ceb971");
  EXPECT_EQ(hex(crypto::derive_k_enb(kasme, 1)),
            "72416f6431f68fc93a4e10f51b29a6e076f80cc26409948d75eca6f0496dcebd");
}

// Every attach derives these keys at the AGW and again in the UE, so S is
// built in a fixed buffer: no derivation touches the heap, and a parameter
// that would run past the buffer is refused instead of written.
TEST(Kdf, DerivationsAllocateNothing) {
  const auto ck = arr<16>("b40ba9a3c58b2a05bbf0d987b21bf8cb");
  const auto ik = arr<16>("f769bcd751044604127672711c6d3441");
  const auto sqn_ak = arr<6>("55f328b43577");
  crypto::ServingNetwork sn;
  const crypto::Key256 kasme = crypto::derive_kasme(ck, ik, sn, sqn_ak);
  crypto::Key256 sink{};
  const auto allocs = [](const auto& derive) {
    const std::uint64_t before = obs::HostProfiler::process_alloc_count();
    for (int i = 0; i < 100; ++i) derive();
    return obs::HostProfiler::process_alloc_count() - before;
  };
  const auto eia2 = crypto::NasAlgorithm::kEia2;
  const auto eea2 = crypto::NasAlgorithm::kEea2;
  EXPECT_EQ(allocs([&] { sink = crypto::derive_kasme(ck, ik, sn, sqn_ak); }),
            0u);
  EXPECT_EQ(allocs([&] { sink = crypto::derive_k_nas_int(kasme, eia2); }), 0u);
  EXPECT_EQ(allocs([&] { sink = crypto::derive_k_nas_enc(kasme, eea2); }), 0u);
  EXPECT_EQ(allocs([&] { sink = crypto::derive_k_enb(kasme, 1); }), 0u);
  EXPECT_NE(sink, crypto::Key256{});

  // KASME's S fills the buffer exactly; a six-digit PLMN would overrun it.
  sn.plmn = "001001";
  EXPECT_THROW(crypto::derive_kasme(ck, ik, sn, sqn_ak), std::length_error);
}

TEST(Kdf, DistinctSubKeys) {
  crypto::Key256 kasme{};
  kasme[0] = 1;
  const auto enc = crypto::derive_k_nas_enc(kasme, crypto::NasAlgorithm::kEea2);
  const auto integrity =
      crypto::derive_k_nas_int(kasme, crypto::NasAlgorithm::kEia2);
  const auto kenb = crypto::derive_k_enb(kasme, 0);
  EXPECT_NE(enc, integrity);
  EXPECT_NE(enc, kenb);
  EXPECT_NE(integrity, kenb);
}

TEST(Kdf, NasMacDependsOnCountAndMessage) {
  crypto::Key256 key{};
  key[5] = 7;
  const auto msg = common::to_bytes("attach-accept");
  const std::uint32_t mac0 = crypto::nas_mac(key, 0, msg);
  EXPECT_EQ(mac0, crypto::nas_mac(key, 0, msg));
  EXPECT_NE(mac0, crypto::nas_mac(key, 1, msg));
  EXPECT_NE(mac0, crypto::nas_mac(key, 0, common::to_bytes("attach-reject")));
}

TEST(NasCipher, RoundTripAllLengths) {
  crypto::Key256 key{};
  key[0] = 0x42;
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 32u, 100u, 1000u}) {
    common::Bytes plain(len);
    for (std::size_t i = 0; i < len; ++i) {
      plain[i] = static_cast<std::uint8_t>(i * 7);
    }
    const common::Bytes cipher = crypto::nas_cipher(key, 5, true, plain);
    EXPECT_EQ(cipher.size(), len);
    if (len > 4) {
      EXPECT_NE(cipher, plain);
    }
    EXPECT_EQ(crypto::nas_cipher(key, 5, true, cipher), plain);
  }
}

TEST(NasCipher, KeystreamDependsOnCountDirectionKey) {
  crypto::Key256 k1{};
  k1[0] = 1;
  crypto::Key256 k2{};
  k2[0] = 2;
  const common::Bytes plain(32, 0x00);  // ciphertext == keystream
  const auto base = crypto::nas_cipher(k1, 0, true, plain);
  EXPECT_NE(crypto::nas_cipher(k1, 1, true, plain), base);   // count
  EXPECT_NE(crypto::nas_cipher(k1, 0, false, plain), base);  // direction
  EXPECT_NE(crypto::nas_cipher(k2, 0, true, plain), base);   // key
  EXPECT_EQ(crypto::nas_cipher(k1, 0, true, plain), base);   // deterministic
}

TEST(NasCipher, CipheredNasPduIsOpaqueWithoutKey) {
  // An on-path observer of a ciphered AttachAccept cannot decode it (and
  // with high probability cannot even parse it).
  crypto::Key256 key{};
  key[3] = 9;
  proto::lte::AttachAccept accept;
  accept.m_tmsi = 77;
  accept.bearer.pdn_address = common::Ipv4::from_octets(172, 16, 0, 9);
  const common::Bytes plain =
      proto::lte::encode_nas(proto::lte::NasMessage{accept});
  const common::Bytes cipher = crypto::nas_cipher(key, 0, true, plain);
  auto sniffed = proto::lte::decode_nas(cipher);
  if (sniffed.ok()) {
    // If it happens to parse, it must not be the original message.
    EXPECT_NE(sniffed.value(), proto::lte::NasMessage{accept});
  }
  // The legitimate receiver recovers it exactly.
  auto decoded =
      proto::lte::decode_nas(crypto::nas_cipher(key, 0, true, cipher));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), proto::lte::NasMessage{accept});
}

TEST(ConstantTimeEqual, Behaviour) {
  const auto a = common::to_bytes("same");
  const auto b = common::to_bytes("same");
  const auto c = common::to_bytes("diff");
  const auto d = common::to_bytes("longer");
  EXPECT_TRUE(common::constant_time_equal(a, b));
  EXPECT_FALSE(common::constant_time_equal(a, c));
  EXPECT_FALSE(common::constant_time_equal(a, d));
}

}  // namespace
}  // namespace magma
