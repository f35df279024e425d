//go:build !purego

#include "textflag.h"

// The update kernels keep the Go loop's operations and their operand order:
// the products first, each rounded, then the sum, rounded — no FMA. An
// index's y is stored before its u and v are read, as in the Go loop, so the
// slices may be one and the same.

// func axpyAxpyAVX2(a float64, x, y []float64, b float64, u, v []float64)
TEXT ·axpyAxpyAVX2(SB), NOSPLIT, $0-112
	VBROADCASTSD a+0(FP), Y0
	VBROADCASTSD b+56(FP), Y1
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         u_base+64(FP), R8
	MOVQ         v_base+88(FP), R9
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

aa8:
	CMPQ    AX, DX
	JGE     aa4
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  32(SI)(AX*8), Y0, Y3
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VADDPD  Y2, Y4, Y4
	VADDPD  Y3, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMULPD  (R8)(AX*8), Y1, Y2
	VMULPD  32(R8)(AX*8), Y1, Y3
	VMOVUPD (R9)(AX*8), Y4
	VMOVUPD 32(R9)(AX*8), Y5
	VADDPD  Y2, Y4, Y4
	VADDPD  Y3, Y5, Y5
	VMOVUPD Y4, (R9)(AX*8)
	VMOVUPD Y5, 32(R9)(AX*8)
	ADDQ    $8, AX
	JMP     aa8

aa4:
	MOVQ    CX, DX
	ANDQ    $-4, DX
	CMPQ    AX, DX
	JGE     aa1
	VMULPD  (SI)(AX*8), Y0, Y2
	VMOVUPD (DI)(AX*8), Y4
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	VMULPD  (R8)(AX*8), Y1, Y2
	VMOVUPD (R9)(AX*8), Y4
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y4, (R9)(AX*8)
	ADDQ    $4, AX

aa1:
	CMPQ   AX, CX
	JGE    aadone
	VMULSD (SI)(AX*8), X0, X2
	VMOVSD (DI)(AX*8), X4
	VADDSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	VMULSD (R8)(AX*8), X1, X2
	VMOVSD (R9)(AX*8), X4
	VADDSD X2, X4, X4
	VMOVSD X4, (R9)(AX*8)
	INCQ   AX
	JMP    aa1

aadone:
	VZEROUPPER
	RET

// func axpbyAVX2(a float64, x []float64, b float64, y []float64)
TEXT ·axpbyAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD a+0(FP), Y0
	VBROADCASTSD b+32(FP), Y1
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+40(FP), DI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

ab8:
	CMPQ    AX, DX
	JGE     ab4
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  32(SI)(AX*8), Y0, Y3
	VMULPD  (DI)(AX*8), Y1, Y4
	VMULPD  32(DI)(AX*8), Y1, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     ab8

ab4:
	MOVQ    CX, DX
	ANDQ    $-4, DX
	CMPQ    AX, DX
	JGE     ab1
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  (DI)(AX*8), Y1, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

ab1:
	CMPQ   AX, CX
	JGE    abdone
	VMULSD (SI)(AX*8), X0, X2
	VMULSD (DI)(AX*8), X1, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    ab1

abdone:
	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 block whose rows are a, b, c, d into the
// rows of e, f, g, h (t0, t1 scratch): pure data movement, every bit kept.
#define TRANSPOSE4(a, b, c, d, e, f, g, h, t0, t1) \
	VUNPCKLPD  b, a, t0        \
	VUNPCKHPD  b, a, t1        \
	VUNPCKLPD  d, c, b         \
	VUNPCKHPD  d, c, d         \
	VPERM2F128 $0x20, b, t0, e \
	VPERM2F128 $0x20, d, t1, f \
	VPERM2F128 $0x31, b, t0, g \
	VPERM2F128 $0x31, d, t1, h

// PROD4 multiplies rows i…i+3 (i = BX) of the columns whose slice headers
// are at off(hx) and off(hy) into P, element by element.
#define PROD4(hx, hy, off, P) \
	MOVQ    off(hx), AX     \
	MOVQ    off(hy), CX     \
	VMOVUPD (AX)(BX*8), P   \
	VMULPD  (CX)(BX*8), P, P

// DOT4 adds rows i…i+3 of the products of the four columns at hx, hy to the
// lanes of acc, one row after the other: column j's products are lane j's
// next four terms, in index order.
#define DOT4(hx, hy, acc) \
	PROD4(hx, hy, 0, Y0)                                \
	PROD4(hx, hy, 24, Y1)                               \
	PROD4(hx, hy, 48, Y2)                               \
	PROD4(hx, hy, 72, Y3)                               \
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9)  \
	VADDPD Y4, acc, acc                                 \
	VADDPD Y5, acc, acc                                 \
	VADDPD Y6, acc, acc                                 \
	VADDPD Y7, acc, acc

// PROD8 multiplies rows i…i+7 of the columns whose slice headers are at
// off(hx) and off(hy) into P (rows i…i+3) and Q (rows i+4…i+7).
#define PROD8(hx, hy, off, P, Q) \
	MOVQ    off(hx), AX       \
	MOVQ    off(hy), CX       \
	VMOVUPD (AX)(BX*8), P     \
	VMOVUPD 32(AX)(BX*8), Q   \
	VMULPD  (CX)(BX*8), P, P  \
	VMULPD  32(CX)(BX*8), Q, Q

// DOT8 is DOT4 over rows i…i+7: each column's eight elements are one or
// two cache lines, read whole in one visit. The workload blocks' columns
// can lie a multiple of 4 KiB apart, so they share an L1 set, and a line
// visited twice may be evicted in between.
#define DOT8(hx, hy, acc) \
	PROD8(hx, hy, 0, Y0, Y4)                            \
	PROD8(hx, hy, 24, Y1, Y5)                           \
	PROD8(hx, hy, 48, Y2, Y6)                           \
	PROD8(hx, hy, 72, Y3, Y7)                           \
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13)  \
	VADDPD Y8, acc, acc                                 \
	VADDPD Y9, acc, acc                                 \
	VADDPD Y10, acc, acc                                \
	VADDPD Y11, acc, acc                                \
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13)  \
	VADDPD Y8, acc, acc                                 \
	VADDPD Y9, acc, acc                                 \
	VADDPD Y10, acc, acc                                \
	VADDPD Y11, acc, acc

// GATHER4 loads element i of the four columns whose slice headers start at
// hdr into the lanes of Y (X its low half, T a scratch half).
#define GATHER4(hdr, X, T, Y) \
	MOVQ        0(hdr), CX       \
	VMOVSD      (CX)(BX*8), X    \
	MOVQ        24(hdr), CX      \
	VMOVHPD     (CX)(BX*8), X, X \
	MOVQ        48(hdr), CX      \
	VMOVSD      (CX)(BX*8), T    \
	MOVQ        72(hdr), CX      \
	VMOVHPD     (CX)(BX*8), T, T \
	VINSERTF128 $1, T, Y, Y

// DOT1 adds row i's product of the four columns at hx, hy to acc's lanes.
#define DOT1(hx, hy, acc) \
	GATHER4(hx, X0, X2, Y0) \
	GATHER4(hy, X1, X3, Y1) \
	VMULPD Y1, Y0, Y0       \
	VADDPD Y0, acc, acc

// func dot2KAVX2(s, t []float64, x, y, u, v [][]float64, n int)
//
// Register use:
//	SI, DI, R10, R11  the column headers of x, y, u, v at the group
//	R8, R9            s and t at the group    R13  the columns left
//	R12 n             R14 n&^3   DX n&^7      BX   row i
//	Y14, Y15          the group's sums of x'y and u'v, two add chains
TEXT ·dot2KAVX2(SB), NOSPLIT, $0-152
	MOVQ s_base+0(FP), R8
	MOVQ s_len+8(FP), R13
	MOVQ t_base+24(FP), R9
	MOVQ x_base+48(FP), SI
	MOVQ y_base+72(FP), DI
	MOVQ u_base+96(FP), R10
	MOVQ v_base+120(FP), R11
	MOVQ n+144(FP), R12
	MOVQ R12, R14
	ANDQ $-4, R14

dgroup:
	CMPQ   R13, $4
	JLT    ddone
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	XORQ   BX, BX
	MOVQ   R12, DX
	ANDQ   $-8, DX

drows8:
	CMPQ BX, DX
	JGE  drows4
	DOT8(SI, DI, Y14)
	DOT8(R10, R11, Y15)
	ADDQ $8, BX
	JMP  drows8

drows4:
	CMPQ BX, R14
	JGE  drows1
	DOT4(SI, DI, Y14)
	DOT4(R10, R11, Y15)
	ADDQ $4, BX
	JMP  drows4

drows1:
	CMPQ BX, R12
	JGE  dstore
	DOT1(SI, DI, Y14)
	DOT1(R10, R11, Y15)
	INCQ BX
	JMP  drows1

dstore:
	VMOVUPD Y14, (R8)
	VMOVUPD Y15, (R9)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $96, SI
	ADDQ    $96, DI
	ADDQ    $96, R10
	ADDQ    $96, R11
	SUBQ    $4, R13
	JMP     dgroup

ddone:
	VZEROUPPER
	RET
