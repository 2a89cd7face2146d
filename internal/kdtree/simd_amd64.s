// AVX2/FMA leaf-scan kernel. The CPU probe guarding it is geom.HasAVX2FMA.

#include "textflag.h"

// func leafSqDistsAVX2(q, p, out *float32, mask *uint8, stride, cnt, dim int64, sHi float32)
//
// out[i] = sum over j of (q[j] - p[j*stride+i])^2 for i in [0, cnt),
// with the points stored dimension-major: coordinate j of point i at
// p[j*stride+i]. cnt is a multiple of 8 (leaf blocks are padded).
// mask[i/8] receives one bit per point, set iff !(sHi < out[i]) — the
// candidate filter, deliberately true for NaN distances so they reach
// the caller's exact path.
//
// The main loop handles 32 points at a time with four independent
// accumulators, so the per-dimension work is one broadcast of q[j] and
// four 8-wide subtract+FMA pairs; the FMA chains never serialize on a
// single register and the loop runs at load/FMA throughput rather than
// FMA latency. An 8-point loop sweeps the remaining blocks.
//
// Groups whose 32 partial sums all exceed sHi halfway through the
// dimensions are rejected without loading the remaining columns; their
// mask bytes are zeroed and their out slots left unwritten, so out[i]
// is only meaningful where the corresponding mask bit is set.
TEXT ·leafSqDistsAVX2(SB), NOSPLIT, $0-60
	MOVQ q+0(FP), SI
	MOVQ p+8(FP), DI
	MOVQ out+16(FP), R8
	MOVQ mask+24(FP), R13
	MOVQ stride+32(FP), BX
	MOVQ cnt+40(FP), CX
	MOVQ dim+48(FP), DX
	VBROADCASTSS sHi+56(FP), Y9
	SHLQ $2, BX             // column stride in bytes
	XORQ R9, R9             // i: point index
	MOVQ CX, R12
	ANDQ $-32, R12          // cnt rounded down to whole 32-point groups
	MOVQ DX, R15
	INCQ R15
	SHRQ $1, R15            // half = (dim+1)/2: early-reject checkpoint

wide:
	CMPQ R9, R12
	JGE  narrow
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
	// beyond sHi after half the dimensions, the group can never accept.
	// Zero its mask bytes and skip the remaining column loads — the
	// scan is memory-bound, so unread columns are the savings. NaN
	// lanes compare “maybe” and always fall through to the full sum.
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
	MOVQ R9, R10
	SHRQ $3, R10
	MOVL $0, (R13)(R10*1)   // all four mask bytes of the group
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
	VMOVUPS Y0, (R8)(R9*4)
	VMOVUPS Y1, 32(R8)(R9*4)
	VMOVUPS Y2, 64(R8)(R9*4)
	VMOVUPS Y3, 96(R8)(R9*4)
	// Candidate filter bits: NLT(sHi, acc) = !(sHi < acc), NaN-true.
	MOVQ R9, R10
	SHRQ $3, R10            // mask byte index i/8
	VCMPPS $5, Y0, Y9, Y5
	VMOVMSKPS Y5, AX
	MOVB AL, (R13)(R10*1)
	VCMPPS $5, Y1, Y9, Y6
	VMOVMSKPS Y6, AX
	MOVB AL, 1(R13)(R10*1)
	VCMPPS $5, Y2, Y9, Y7
	VMOVMSKPS Y7, AX
	MOVB AL, 2(R13)(R10*1)
	VCMPPS $5, Y3, Y9, Y8
	VMOVMSKPS Y8, AX
	MOVB AL, 3(R13)(R10*1)
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
	VMOVUPS Y0, (R8)(R9*4)
	MOVQ R9, R10
	SHRQ $3, R10
	VCMPPS $5, Y0, Y9, Y5
	VMOVMSKPS Y5, AX
	MOVB AL, (R13)(R10*1)
	ADDQ $8, R9
	JMP  narrow

done:
	VZEROUPPER
	RET
