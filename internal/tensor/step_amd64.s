#include "textflag.h"

// AVX leaves for the training step (step.go). Every lane does what the
// generic loop does to one element, with the same IEEE-rounded
// operations in the same order. Where two NaNs meet, x86 returns the
// first source's, so each commutative VMULPD/VADDPD takes as first
// source the operand the Go compiler makes the destination of its
// MULSD/ADDSD in the generic twin (for the sums, the right-hand
// term). There is no VFMADD* and no reciprocal. The scalar tails are
// VEX-encoded and VZEROUPPER clears the upper halves before returning
// to Go code, as in axpy_amd64.s.

// func adamStepAVX(w, g, m, v []float64, k AdamCoef)
// len(g), len(m) and len(v) equal len(w).
TEXT ·adamStepAVX(SB), NOSPLIT, $0-160
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	VBROADCASTSD k_Beta1+96(FP), Y8
	VBROADCASTSD k_OneMinusBeta1+104(FP), Y9
	VBROADCASTSD k_Beta2+112(FP), Y10
	VBROADCASTSD k_OneMinusBeta2+120(FP), Y11
	VBROADCASTSD k_C1+128(FP), Y12
	VBROADCASTSD k_C2+136(FP), Y13
	VBROADCASTSD k_LR+144(FP), Y14
	VBROADCASTSD k_Eps+152(FP), Y15
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX

adam4:
	CMPQ    AX, DX
	JGE     adamtail
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y8, Y1 // β₁·m
	VMULPD  Y0, Y9, Y2         // (1−β₁)·g
	VADDPD  Y1, Y2, Y1         // m
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y10, Y3 // β₂·v
	VMULPD  Y0, Y11, Y4         // (1−β₂)·g
	VMULPD  Y0, Y4, Y4          // ((1−β₂)·g)·g
	VADDPD  Y3, Y4, Y3          // v
	VMOVUPD Y3, (R9)(AX*8)
	VDIVPD  Y12, Y1, Y1         // m/c1
	VMULPD  Y1, Y14, Y1         // lr·(m/c1)
	VDIVPD  Y13, Y3, Y3         // v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y3, Y15, Y3         // ε+sqrt(v/c2)
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2          // w − step
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     adam4

adamtail:
	CMPQ    AX, CX
	JGE     adamdone
	VMOVSD  (SI)(AX*8), X0
	VMULSD  (R8)(AX*8), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X1, X2, X1
	VMOVSD  X1, (R8)(AX*8)
	VMULSD  (R9)(AX*8), X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X3, X4, X3
	VMOVSD  X3, (R9)(AX*8)
	VDIVSD  X12, X1, X1
	VMULSD  X1, X14, X1
	VDIVSD  X13, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X3, X15, X3
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(AX*8), X2
	VSUBSD  X1, X2, X2
	VMOVSD  X2, (DI)(AX*8)
	INCQ    AX
	JMP     adamtail

adamdone:
	VZEROUPPER
	RET

// func reluAVX(x []float64)
// VMAXPD returns its second source (+0) unless the first is greater,
// so NaN, −0 and negatives all become +0, as !(x > 0) does.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ   x_base+0(FP), DI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX

relu8:
	CMPQ    AX, DX
	JGE     relu4
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMAXPD  Y0, Y1, Y1
	VMAXPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     relu8

relu4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JL      relutail
	VMOVUPD (DI)(AX*8), Y1
	VMAXPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

relutail:
	CMPQ   AX, CX
	JGE    reludone
	VMOVSD (DI)(AX*8), X1
	VMAXSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    relutail

reludone:
	VZEROUPPER
	RET

// func reluMaskAVX(d, a []float64)
// d[j] = a[j] > 0 ? d[j] : d[j]·0 for j < len(a); len(d) >= len(a).
// VCMPPD's GT_OQ predicate (0x1E) is false for NaN, like a[j] > 0.
TEXT ·reluMaskAVX(SB), NOSPLIT, $0-48
	MOVQ   d_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

mask4:
	CMPQ      AX, DX
	JGE       masktail
	VMOVUPD   (DI)(AX*8), Y1
	VMOVUPD   (SI)(AX*8), Y2
	VCMPPD    $0x1e, Y0, Y2, Y3 // a > 0
	VMULPD    Y0, Y1, Y4        // d·0
	VBLENDVPD Y3, Y1, Y4, Y5    // a > 0 ? d : d·0
	VMOVUPD   Y5, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       mask4

masktail:
	CMPQ      AX, CX
	JGE       maskdone
	VMOVSD    (DI)(AX*8), X1
	VMOVSD    (SI)(AX*8), X2
	VCMPSD    $0x1e, X0, X2, X3
	VMULSD    X0, X1, X4
	VBLENDVPD X3, X1, X4, X5
	VMOVSD    X5, (DI)(AX*8)
	INCQ      AX
	JMP       masktail

maskdone:
	VZEROUPPER
	RET
