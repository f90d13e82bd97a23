#include "textflag.h"

// AVX leaves for the dense GEMM kernels. Every lane does what the
// scalar loop does to one element: an IEEE-rounded VMULPD, then an
// IEEE-rounded VADDPD, in the same order. There is deliberately no
// VFMADD*: a fused multiply-add rounds once and would change bits.
// The scalar tails use the VEX-encoded VMULSD/VADDSD so no legacy-SSE
// instruction runs while the upper halves are dirty, and VZEROUPPER
// clears them before returning to Go code.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27: OSXSAVE (XGETBV usable); bit 28: AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpy1AVX(dst, x []float64, a float64)
// dst[j] += a*x[j] for j < len(x); len(dst) >= len(x).
TEXT ·axpy1AVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

loop8:
	CMPQ    AX, DX
	JGE     loop4
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     loop8

loop4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JL      tail1
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

tail1:
	CMPQ   AX, CX
	JGE    done1
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail1

done1:
	VZEROUPPER
	RET

// func axpyPairAVX(dst, x0, x1 []float64, a0, a1 float64)
// dst[j] = (dst[j] + a0*x0[j]) + a1*x1[j] for j < len(x0);
// len(dst) and len(x1) are >= len(x0).
TEXT ·axpyPairAVX(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         x0_base+24(FP), SI
	MOVQ         x0_len+32(FP), CX
	MOVQ         x1_base+48(FP), R8
	VBROADCASTSD a0+72(FP), Y0
	VBROADCASTSD a1+80(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

pair8:
	CMPQ    AX, DX
	JGE     pair4
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  32(SI)(AX*8), Y0, Y3
	VMULPD  (R8)(AX*8), Y1, Y4
	VMULPD  32(R8)(AX*8), Y1, Y5
	VADDPD  (DI)(AX*8), Y2, Y2
	VADDPD  32(DI)(AX*8), Y3, Y3
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     pair8

pair4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JL      pairtail
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  (R8)(AX*8), Y1, Y4
	VADDPD  (DI)(AX*8), Y2, Y2
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

pairtail:
	CMPQ   AX, CX
	JGE    pairdone
	VMULSD (SI)(AX*8), X0, X2
	VMULSD (R8)(AX*8), X1, X4
	VADDSD (DI)(AX*8), X2, X2
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    pairtail

pairdone:
	VZEROUPPER
	RET
