// CPU feature probes and the AVX2 four-row squared-distance kernel.

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// BLOCK adds one 4-dimension block at byte offset off from dimension
// AX to the four row accumulators: lane k of Yr adds (q[i+k]-r[i+k])²,
// rounded after the subtract, the multiply and the add, exactly like
// the s0..s3 chains of the scalar loop. No FMA: a fused multiply-add
// would skip the product's rounding and break bit identity.
#define BLOCK(off) \
	VMOVUPD off(SI)(AX*8), Y4; \
	VSUBPD  off(R8)(AX*8), Y4, Y5; \
	VSUBPD  off(R9)(AX*8), Y4, Y6; \
	VSUBPD  off(R10)(AX*8), Y4, Y7; \
	VSUBPD  off(R11)(AX*8), Y4, Y8; \
	VMULPD  Y5, Y5, Y5; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y7, Y7, Y7; \
	VMULPD  Y8, Y8, Y8; \
	VADDPD  Y5, Y0, Y0; \
	VADDPD  Y6, Y1, Y1; \
	VADDPD  Y7, Y2, Y2; \
	VADDPD  Y8, Y3, Y3

// func sqDist4AVX2(q, r0, r1, r2, r3 *float64, dim int64, limit float64, acc *[16]float64, part *[4]float64) (done uint64)
//
// Y0..Y3 hold rows 0..3; lane k of a row's register is that row's s_k.
// Every 16 dimensions a 4x4 transpose puts lane k of all four rows in
// one register, so three adds give each row ((s0+s1)+s2)+s3, the
// scalar checkpoint sum, which is compared with limit (limit < sum,
// false for NaN). A row's first exceeding sum is kept in Y13; the
// kernel returns as soon as all four rows have exceeded.
TEXT ·sqDist4AVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ dim+40(FP), CX
	VBROADCASTSD limit+48(FP), Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y12, Y12, Y12    // rows past the limit
	VXORPD Y13, Y13, Y13    // their first exceeding checkpoint sums
	XORQ AX, AX             // i: dimension
	MOVQ CX, BX
	ANDQ $-16, BX           // end of the checkpointed dimensions
	ANDQ $-4, CX            // end of the whole 4-dimension blocks

chunk:
	CMPQ AX, BX
	JGE  blocks
	BLOCK(0)
	BLOCK(32)
	BLOCK(64)
	BLOCK(96)
	ADDQ $16, AX
	VUNPCKLPD Y1, Y0, Y4          // a00 a10 a02 a12
	VUNPCKHPD Y1, Y0, Y5          // a01 a11 a03 a13
	VUNPCKLPD Y3, Y2, Y6          // a20 a30 a22 a32
	VUNPCKHPD Y3, Y2, Y7          // a21 a31 a23 a33
	VPERM2F128 $0x20, Y6, Y4, Y8  // s0 of rows 0..3
	VPERM2F128 $0x20, Y7, Y5, Y9  // s1
	VPERM2F128 $0x31, Y6, Y4, Y10 // s2
	VPERM2F128 $0x31, Y7, Y5, Y11 // s3
	VADDPD Y9, Y8, Y8
	VADDPD Y10, Y8, Y8
	VADDPD Y11, Y8, Y8
	VCMPPD $0x11, Y8, Y15, Y9     // limit < sum (LT_OQ)
	VANDNPD Y9, Y12, Y10          // newly exceeded: exceeded &^ done
	VBLENDVPD Y10, Y8, Y13, Y13
	VORPD Y9, Y12, Y12
	VMOVMSKPD Y12, DX
	CMPQ DX, $15
	JNE  chunk
	JMP  out

blocks:
	CMPQ AX, CX
	JGE  out
	BLOCK(0)
	ADDQ $4, AX
	JMP  blocks

out:
	MOVQ acc+56(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	MOVQ part+64(FP), DI
	VMOVUPD Y13, (DI)
	VMOVMSKPD Y12, DX
	MOVQ DX, done+72(FP)
	VZEROUPPER
	RET
