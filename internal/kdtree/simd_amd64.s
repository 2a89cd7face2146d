// AVX2/FMA leaf kernel. The CPU probe guarding it is geom.HasAVX2FMA;
// POPCNT belongs to x86-64-v2, which every AVX2 CPU implements.

#include "textflag.h"
#include "go_asm.h"

// PACK left-packs one 8-point block whose squared distances are in acc
// and whose ids start at off(R8)(R9*4): the lanes with !(sHi < acc) go,
// in lane order, to st.ids[n:] and st.dist[n:], n (R14) grows by their
// count, and R12 collects the passing lanes with !(acc <= sLo). Both
// compares are true for NaN. R11 holds the permutation table; the
// stores write all 8 lanes, so the slots past the new n are scratch.
// Clobbers AX, R10 and Y5-Y8.
#define PACK(acc, off) \
	VCMPPS    $5, acc, Y9, Y5; \
	VMOVMSKPS Y5, AX; \
	VCMPPS    $6, Y10, acc, Y6; \
	VMOVMSKPS Y6, R10; \
	ANDL      AX, R10; \
	ORL       R10, R12; \
	POPCNTL   AX, R10; \
	SHLL      $5, AX; \
	VMOVDQU   (R11)(AX*1), Y7; \
	VPERMD    off(R8)(R9*4), Y7, Y8; \
	VPERMPS   acc, Y7, acc; \
	VMOVDQU   Y8, (R13)(R14*4); \
	VMOVUPS   acc, stage_dist(R13)(R14*4); \
	ADDQ      R10, R14

// func leafPackAVX2(q, p *float32, ids *int32, st *stage, perm *[256][8]int32, stride, cnt, dim int64, sLo, sHi float32) (n int64, unsure bool)
//
// leafPackGo's contract, bit for bit: the sum over j of
// (q[j] - p[j*stride+i])^2 for i in [0, cnt), points stored
// dimension-major, cnt a multiple of 8, each passing point's ids[i] and
// sum packed into st. perm is packPerm.
//
// The main loop handles 32 points at a time with four independent
// accumulators, so the per-dimension work is one broadcast of q[j] and
// four 8-wide subtract+FMA pairs; the FMA chains never serialize on a
// single register and the loop runs at load/FMA throughput rather than
// FMA latency. An 8-point loop sweeps the remaining blocks.
//
// Groups whose 32 partial sums all exceed sHi halfway through the
// dimensions are dropped without loading the remaining columns.
TEXT ·leafPackAVX2(SB), NOSPLIT, $0-81
	MOVQ q+0(FP), SI
	MOVQ p+8(FP), DI
	MOVQ ids+16(FP), R8
	MOVQ st+24(FP), R13
	MOVQ stride+40(FP), BX
	MOVQ cnt+48(FP), CX
	MOVQ dim+56(FP), DX
	VBROADCASTSS sLo+64(FP), Y10
	VBROADCASTSS sHi+68(FP), Y9
	SHLQ $2, BX             // column stride in bytes
	XORQ R9, R9             // i: point index
	XORQ R14, R14           // n: packed count
	XORQ R12, R12           // uncertain lanes seen
	MOVQ DX, R15
	INCQ R15
	SHRQ $1, R15            // half = (dim+1)/2: early-reject checkpoint

wide:
	LEAQ 32(R9), AX
	CMPQ AX, CX
	JGT  narrow
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (DI)(R9*4), R11    // &p[0*stride + i]
	XORQ R10, R10           // j: dimension

wdimsA:
	CMPQ R10, R15
	JGE  wcheck
	VBROADCASTSS (SI)(R10*4), Y4
	VSUBPS (R11), Y4, Y5    // d = q[j] - p[j][i .. i+7]
	VSUBPS 32(R11), Y4, Y6
	VSUBPS 64(R11), Y4, Y7
	VSUBPS 96(R11), Y4, Y8
	VFMADD231PS Y5, Y5, Y0  // acc += d*d
	VFMADD231PS Y6, Y6, Y1
	VFMADD231PS Y7, Y7, Y2
	VFMADD231PS Y8, Y8, Y3
	ADDQ BX, R11            // next column
	INCQ R10
	JMP  wdimsA

wcheck:
	// Partial sums only grow: if every lane of the group is already
	// beyond sHi after half the dimensions, the group can never pass.
	// Skip its remaining column loads — the scan is memory-bound, so
	// unread columns are the savings. NaN lanes compare "maybe" and
	// always fall through to the full sum.
	VCMPPS $5, Y0, Y9, Y5
	VCMPPS $5, Y1, Y9, Y6
	VCMPPS $5, Y2, Y9, Y7
	VCMPPS $5, Y3, Y9, Y8
	VORPS Y6, Y5, Y5
	VORPS Y8, Y7, Y7
	VORPS Y7, Y5, Y5
	VMOVMSKPS Y5, AX
	TESTL AX, AX
	JNE  wdimsB
	ADDQ $32, R9
	JMP  wide

wdimsB:
	CMPQ R10, DX
	JGE  wflush
	VBROADCASTSS (SI)(R10*4), Y4
	VSUBPS (R11), Y4, Y5
	VSUBPS 32(R11), Y4, Y6
	VSUBPS 64(R11), Y4, Y7
	VSUBPS 96(R11), Y4, Y8
	VFMADD231PS Y5, Y5, Y0
	VFMADD231PS Y6, Y6, Y1
	VFMADD231PS Y7, Y7, Y2
	VFMADD231PS Y8, Y8, Y3
	ADDQ BX, R11
	INCQ R10
	JMP  wdimsB

wflush:
	MOVQ perm+32(FP), R11
	PACK(Y0, 0)
	PACK(Y1, 32)
	PACK(Y2, 64)
	PACK(Y3, 96)
	ADDQ $32, R9
	JMP  wide

narrow:
	CMPQ R9, CX
	JGE  done
	VXORPS Y0, Y0, Y0
	LEAQ (DI)(R9*4), R11
	XORQ R10, R10

ndims:
	CMPQ R10, DX
	JGE  nflush
	VBROADCASTSS (SI)(R10*4), Y4
	VSUBPS (R11), Y4, Y5
	VFMADD231PS Y5, Y5, Y0
	ADDQ BX, R11
	INCQ R10
	JMP  ndims

nflush:
	MOVQ perm+32(FP), R11
	PACK(Y0, 0)
	ADDQ $8, R9
	JMP  narrow

done:
	MOVQ R14, n+72(FP)
	TESTQ R12, R12
	SETNE unsure+80(FP)
	VZEROUPPER
	RET
