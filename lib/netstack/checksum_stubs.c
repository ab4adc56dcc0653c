/* RFC 1071 one's-complement running sum, for
   Checksum.ones_complement_sum: big-endian 32-bit words added into
   64-bit accumulators, then a 32-, a 16- and an 8-bit tail (the odd byte
   as the high half of a 16-bit word), plus [init]. Since 2^16 = 1
   (mod 0xFFFF), folding this sum gives the same checksum as adding
   16-bit words, and the accumulator cannot wrap below 2^34 bytes.

   The OCaml wrapper has already checked that [off, off + len) lies in
   the buffer and that [len > 0]; the native entry point takes and
   returns untagged values and never allocates ([@@noalloc]). */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static inline uint64_t load_be64(const unsigned char *p)
{
  uint64_t v;
  memcpy(&v, p, 8);
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

intnat netstack_checksum_sum(intnat init, value buf, intnat off, intnat len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(buf) + off;
  uint64_t sum = 0, sum2 = 0;
  /* Two accumulators, so consecutive adds do not wait on each other. */
  while (len >= 16) {
    uint64_t w = load_be64(p), v = load_be64(p + 8);
    sum += (w >> 32) + (w & 0xFFFFFFFFu);
    sum2 += (v >> 32) + (v & 0xFFFFFFFFu);
    p += 16;
    len -= 16;
  }
  sum += sum2;
  if (len >= 8) {
    uint64_t w = load_be64(p);
    sum += (w >> 32) + (w & 0xFFFFFFFFu);
    p += 8;
    len -= 8;
  }
  if (len >= 4) {
    sum += ((uint64_t)p[0] << 24) | ((uint64_t)p[1] << 16)
         | ((uint64_t)p[2] << 8) | p[3];
    p += 4;
    len -= 4;
  }
  if (len >= 2) {
    sum += ((uint64_t)p[0] << 8) | p[1];
    p += 2;
    len -= 2;
  }
  if (len >= 1) sum += (uint64_t)p[0] << 8;
  return init + (intnat)sum;
}

value netstack_checksum_sum_byte(value init, value buf, value off, value len)
{
  return Val_long(
    netstack_checksum_sum(Long_val(init), buf, Long_val(off), Long_val(len)));
}
