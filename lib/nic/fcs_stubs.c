/* IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320) over a whole
   frame, for Fcs.compute.

   Two kernels produce the same CRC register:
   - on x86-64 CPUs with PCLMULQDQ, frames of 64 bytes or more have
     their 16-byte blocks folded with carry-less multiplies, after
     Intel's "Fast CRC Computation for Generic Polynomials Using
     PCLMULQDQ Instruction" (2009), with the bit-reflected constants
     that zlib (Chromium) and Linux (crc32-pclmul) also use;
   - frames under 64 bytes, the tail under 16 bytes behind the fold,
     and every frame on other CPUs go through slicing-by-8: eight
     256-entry tables fold eight bytes per step.
   The tables are built, and the CPU asked, once, when the Fcs module
   initialises (nic_fcs_init).

   The native entry point takes and returns untagged values and never
   allocates, so it is declared [@@noalloc]. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static uint32_t crc_table[8][256];

/* Table k is the CRC of a byte followed by k zero bytes: it folds in a
   byte that has k more bytes of its eight-byte step after it. */
static void build_tables(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = crc_table[k - 1][n];
      crc_table[k][n] = crc_table[0][prev & 0xff] ^ (prev >> 8);
    }
}

static inline uint32_t load_le32(const unsigned char *p)
{
  uint32_t v;
  memcpy(&v, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

static uint32_t crc_slice8(uint32_t crc, const unsigned char *p, size_t len)
{
  while (len >= 8) {
    uint32_t a = crc ^ load_le32(p);
    uint32_t b = load_le32(p + 4);
    crc = crc_table[7][a & 0xff] ^ crc_table[6][(a >> 8) & 0xff]
        ^ crc_table[5][(a >> 16) & 0xff] ^ crc_table[4][a >> 24]
        ^ crc_table[3][b & 0xff] ^ crc_table[2][(b >> 8) & 0xff]
        ^ crc_table[1][(b >> 16) & 0xff] ^ crc_table[0][b >> 24];
    p += 8;
    len -= 8;
  }
  while (len--)
    crc = crc_table[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_FOLD 1
#include <cpuid.h>
#include <emmintrin.h>
#include <wmmintrin.h>

static int have_pclmul;

static void detect_pclmul(void)
{
  unsigned int eax, ebx, ecx, edx;
  have_pclmul = __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_PCLMUL);
}

/* Folds [len] bytes, a multiple of 16 and at least 64, into the CRC
   register [crc] (pre-inverted, as the table kernel keeps it). Four
   128-bit lanes fold 64 bytes per step, collapse into one lane, which
   then folds 16 bytes per step; the lane is reduced to 64 and then 32
   bits, the last step a Barrett reduction. */
__attribute__((target("pclmul")))
static uint32_t crc_fold(uint32_t crc, const unsigned char *p, size_t len)
{
  /* x^(4*128+32) and x^(4*128-32) mod P, then x^(128+32), x^(128-32),
     x^64 mod P, and the polynomial P with its Barrett constant mu, all
     bit-reflected. */
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1, x2, x3, x4, x5, x6, x7, x8;

  x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  p += 64;
  len -= 64;

  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6),
                       _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7),
                       _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8),
                       _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    len -= 64;
  }

  /* Four lanes into one. */
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  while (len >= 16) {
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }

  /* 128 bits to 64. */
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  /* Barrett reduction to 32 bits. */
  x2 = _mm_and_si128(x1, mask32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, mask32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_cvtsi128_si32(_mm_srli_si128(x1, 4));
}
#endif

/* Run once, when the Fcs module initialises. */
value nic_fcs_init(value unit)
{
  (void)unit;
  build_tables();
#ifdef HAVE_FOLD
  detect_pclmul();
#endif
  return Val_unit;
}

intnat nic_fcs_compute(value frame)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(frame);
  size_t len = caml_string_length(frame);
  uint32_t crc = 0xFFFFFFFFu;
#ifdef HAVE_FOLD
  if (have_pclmul && len >= 64) {
    size_t folded = len & ~(size_t)15;
    crc = crc_fold(crc, p, folded);
    p += folded;
    len -= folded;
  }
#endif
  return (intnat)(crc_slice8(crc, p, len) ^ 0xFFFFFFFFu);
}

value nic_fcs_compute_byte(value frame)
{
  return Val_long(nic_fcs_compute(frame));
}
