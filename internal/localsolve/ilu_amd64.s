//go:build !purego

#include "textflag.h"

// Register use in both sweeps:
//	DI  w              R12 k*8, the byte stride of a block row
//	SI  the column headers (r in the forward sweep, z in the backward)
//	R8  rowPtr         R9  diag         R10 col         R11 val
//	BX  row i          R13 n            R14 &w[i*k]     R15 tile offset
//	CX  entry p        DX  the row part's end           AX  scratch
//	Y15 the pivot (backward)

// SUB8 subtracts val[p] * w[col[p]*k + tile : +8] from (Y0, Y1): one
// broadcast, then per lane a multiply and a subtraction, each rounded.
#define SUB8 \
	MOVQ         (R10)(CX*8), AX \
	IMULQ        R12, AX         \
	ADDQ         R15, AX         \
	VBROADCASTSD (R11)(CX*8), Y8 \
	VMULPD       (DI)(AX*1), Y8, Y9 \
	VMULPD       32(DI)(AX*1), Y8, Y10 \
	VSUBPD       Y9, Y0, Y0      \
	VSUBPD       Y10, Y1, Y1

#define SUB4 \
	MOVQ         (R10)(CX*8), AX \
	IMULQ        R12, AX         \
	ADDQ         R15, AX         \
	VBROADCASTSD (R11)(CX*8), Y8 \
	VMULPD       (DI)(AX*1), Y8, Y9 \
	VSUBPD       Y9, Y0, Y0

// GATHER4 loads element i of the four columns whose slice headers start at
// off(AX) into the lanes of Y (X its low half, T a scratch half).
#define GATHER4(off, X, T, Y) \
	MOVQ        off(AX), CX         \
	VMOVSD      (CX)(BX*8), X       \
	MOVQ        off+24(AX), CX      \
	VMOVHPD     (CX)(BX*8), X, X    \
	MOVQ        off+48(AX), CX      \
	VMOVSD      (CX)(BX*8), T       \
	MOVQ        off+72(AX), CX      \
	VMOVHPD     (CX)(BX*8), T, T    \
	VINSERTF128 $1, T, Y, Y

// SCATTER4 stores the lanes of Y to element i of the four columns whose
// slice headers start at off(AX).
#define SCATTER4(off, X, T, Y) \
	MOVQ         off(AX), CX    \
	VMOVSD       X, (CX)(BX*8)  \
	MOVQ         off+24(AX), CX \
	VMOVHPD      X, (CX)(BX*8)  \
	VEXTRACTF128 $1, Y, T       \
	MOVQ         off+48(AX), CX \
	VMOVSD       T, (CX)(BX*8)  \
	MOVQ         off+72(AX), CX \
	VMOVHPD      T, (CX)(BX*8)

// TRANSPOSE4 transposes the 4×4 block whose rows are a, b, c, d into the
// rows of e, f, g, h (t0, t1 scratch): pure data movement, every bit kept.
#define TRANSPOSE4(a, b, c, d, e, f, g, h, t0, t1) \
	VUNPCKLPD  b, a, t0       \
	VUNPCKHPD  b, a, t1       \
	VUNPCKLPD  d, c, b        \
	VUNPCKHPD  d, c, d        \
	VPERM2F128 $0x20, b, t0, e \
	VPERM2F128 $0x20, d, t1, f \
	VPERM2F128 $0x31, b, t0, g \
	VPERM2F128 $0x31, d, t1, h

// STORE8ROWS stores Y8…Y15 to the rows of w at DX, DX+k, …, DX+7k.
#define STORE8ROWS \
	VMOVUPD Y8, (DX)           \
	VMOVUPD Y9, (DX)(R12*1)    \
	VMOVUPD Y10, (DX)(R12*2)   \
	LEAQ    (DX)(R12*2), CX    \
	VMOVUPD Y11, (CX)(R12*1)   \
	LEAQ    (DX)(R12*4), DX    \
	VMOVUPD Y12, (DX)          \
	VMOVUPD Y13, (DX)(R12*1)   \
	VMOVUPD Y14, (DX)(R12*2)   \
	LEAQ    (DX)(R12*2), CX    \
	VMOVUPD Y15, (CX)(R12*1)

// LOAD8ROWS loads the rows of w at DX, DX+k, …, DX+7k into Y0…Y7.
#define LOAD8ROWS \
	VMOVUPD (DX), Y0           \
	VMOVUPD (DX)(R12*1), Y1    \
	VMOVUPD (DX)(R12*2), Y2    \
	LEAQ    (DX)(R12*2), CX    \
	VMOVUPD (CX)(R12*1), Y3    \
	LEAQ    (DX)(R12*4), DX    \
	VMOVUPD (DX), Y4           \
	VMOVUPD (DX)(R12*1), Y5    \
	VMOVUPD (DX)(R12*2), Y6    \
	LEAQ    (DX)(R12*2), CX    \
	VMOVUPD (CX)(R12*1), Y7

// LOADARGS loads the registers both sweeps share; hdr names the headers.
#define LOADARGS(hdr) \
	MOVQ w_base+0(FP), DI          \
	MOVQ hdr, SI                   \
	MOVQ rowPtr_base+48(FP), R8    \
	MOVQ diag_base+72(FP), R9      \
	MOVQ diag_len+80(FP), R13      \
	MOVQ col_base+96(FP), R10      \
	MOVQ val_base+120(FP), R11

// The columns cross into and out of w eight rows at a time, as 4×4
// transposes: a column's eight elements are one or two cache lines, read or
// written whole. Gathering them row by row instead revisits every column's
// line eight times, and columns whose allocations lie a multiple of 4 KiB
// apart all map to the same L1 set, so at sixteen columns the lines evict
// each other between visits. The rows past the last multiple of eight go
// one at a time.

// func iluLowerAVX2(w []float64, r [][]float64, rowPtr, diag, col []int, val []float64)
TEXT ·iluLowerAVX2(SB), NOSPLIT, $0-144
	LOADARGS(r_base+24(FP))
	MOVQ r_len+32(FP), R12
	SHLQ $3, R12
	XORQ BX, BX
	MOVQ DI, R14

lrow:
	CMPQ  BX, R13
	JGE   ldone
	XORQ  R15, R15
	MOVQ  R13, AX
	ANDQ  $-8, AX
	CMPQ  BX, AX
	JGE   lgather
	TESTQ $7, BX
	JNZ   ltile8

	// Rows i…i+7 of r, four columns at a time, into rows i…i+7 of w.
lstage:
	CMPQ    R15, R12
	JGE     lstaged
	LEAQ    (R15)(R15*2), AX
	ADDQ    SI, AX
	MOVQ    0(AX), CX
	VMOVUPD (CX)(BX*8), Y0
	VMOVUPD 32(CX)(BX*8), Y4
	MOVQ    24(AX), CX
	VMOVUPD (CX)(BX*8), Y1
	VMOVUPD 32(CX)(BX*8), Y5
	MOVQ    48(AX), CX
	VMOVUPD (CX)(BX*8), Y2
	VMOVUPD 32(CX)(BX*8), Y6
	MOVQ    72(AX), CX
	VMOVUPD (CX)(BX*8), Y3
	VMOVUPD 32(CX)(BX*8), Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15, Y0, Y1)
	LEAQ    (R14)(R15*1), DX
	STORE8ROWS
	ADDQ    $32, R15
	JMP     lstage

lstaged:
	XORQ R15, R15
	JMP  ltile8

	// A row past the last multiple of eight: row i of r into row i of w.
lgather:
	CMPQ    R15, R12
	JGE     lgathered
	LEAQ    (R15)(R15*2), AX
	ADDQ    SI, AX
	GATHER4(0, X0, X4, Y0)
	VMOVUPD Y0, (R14)(R15*1)
	ADDQ    $32, R15
	JMP     lgather

lgathered:
	XORQ R15, R15

ltile8:
	LEAQ    64(R15), AX
	CMPQ    AX, R12
	JGT     ltile4
	VMOVUPD (R14)(R15*1), Y0
	VMOVUPD 32(R14)(R15*1), Y1
	MOVQ    (R8)(BX*8), CX
	MOVQ    (R9)(BX*8), DX
	CMPQ    CX, DX
	JGE     lstore8

lent8:
	SUB8
	INCQ CX
	CMPQ CX, DX
	JLT  lent8

lstore8:
	VMOVUPD Y0, (R14)(R15*1)
	VMOVUPD Y1, 32(R14)(R15*1)
	ADDQ    $64, R15
	JMP     ltile8

ltile4:
	CMPQ    R15, R12
	JGE     lnext
	VMOVUPD (R14)(R15*1), Y0
	MOVQ    (R8)(BX*8), CX
	MOVQ    (R9)(BX*8), DX
	CMPQ    CX, DX
	JGE     lstore4

lent4:
	SUB4
	INCQ CX
	CMPQ CX, DX
	JLT  lent4

lstore4:
	VMOVUPD Y0, (R14)(R15*1)

lnext:
	INCQ BX
	ADDQ R12, R14
	JMP  lrow

ldone:
	VZEROUPPER
	RET

// func iluUpperAVX2(w []float64, z [][]float64, rowPtr, diag, col []int, val []float64)
TEXT ·iluUpperAVX2(SB), NOSPLIT, $0-144
	LOADARGS(z_base+24(FP))
	MOVQ  z_len+32(FP), R12
	SHLQ  $3, R12
	LEAQ  -1(R13), BX
	MOVQ  BX, R14
	IMULQ R12, R14
	ADDQ  DI, R14

urow:
	TESTQ        BX, BX
	JL           udone
	MOVQ         (R9)(BX*8), AX
	VBROADCASTSD (R11)(AX*8), Y15
	XORQ         R15, R15

utile8:
	LEAQ    64(R15), AX
	CMPQ    AX, R12
	JGT     utile4
	VMOVUPD (R14)(R15*1), Y0
	VMOVUPD 32(R14)(R15*1), Y1
	MOVQ    (R9)(BX*8), CX
	INCQ    CX
	MOVQ    8(R8)(BX*8), DX
	CMPQ    CX, DX
	JGE     udiv8

uent8:
	SUB8
	INCQ CX
	CMPQ CX, DX
	JLT  uent8

udiv8:
	VDIVPD  Y15, Y0, Y0
	VDIVPD  Y15, Y1, Y1
	VMOVUPD Y0, (R14)(R15*1)
	VMOVUPD Y1, 32(R14)(R15*1)
	ADDQ    $64, R15
	JMP     utile8

utile4:
	CMPQ    R15, R12
	JGE     uout
	VMOVUPD (R14)(R15*1), Y0
	MOVQ    (R9)(BX*8), CX
	INCQ    CX
	MOVQ    8(R8)(BX*8), DX
	CMPQ    CX, DX
	JGE     udiv4

uent4:
	SUB4
	INCQ CX
	CMPQ CX, DX
	JLT  uent4

udiv4:
	VDIVPD  Y15, Y0, Y0
	VMOVUPD Y0, (R14)(R15*1)

uout:
	XORQ  R15, R15
	MOVQ  R13, AX
	ANDQ  $-8, AX
	CMPQ  BX, AX
	JGE   uscatter
	TESTQ $7, BX
	JNZ   unext

	// Rows i…i+7 of w, four columns at a time, out to rows i…i+7 of z.
uunstage:
	CMPQ R15, R12
	JGE  unext
	LEAQ (R14)(R15*1), DX
	LOAD8ROWS
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15, Y0, Y1)
	LEAQ    (R15)(R15*2), AX
	ADDQ    SI, AX
	MOVQ    0(AX), CX
	VMOVUPD Y8, (CX)(BX*8)
	VMOVUPD Y12, 32(CX)(BX*8)
	MOVQ    24(AX), CX
	VMOVUPD Y9, (CX)(BX*8)
	VMOVUPD Y13, 32(CX)(BX*8)
	MOVQ    48(AX), CX
	VMOVUPD Y10, (CX)(BX*8)
	VMOVUPD Y14, 32(CX)(BX*8)
	MOVQ    72(AX), CX
	VMOVUPD Y11, (CX)(BX*8)
	VMOVUPD Y15, 32(CX)(BX*8)
	ADDQ    $32, R15
	JMP     uunstage

	// A row past the last multiple of eight: row i of w out to row i of z.
uscatter:
	CMPQ    R15, R12
	JGE     unext
	VMOVUPD (R14)(R15*1), Y0
	LEAQ    (R15)(R15*2), AX
	ADDQ    SI, AX
	SCATTER4(0, X0, X4, Y0)
	ADDQ    $32, R15
	JMP     uscatter

unext:
	DECQ BX
	SUBQ R12, R14
	JMP  urow

udone:
	VZEROUPPER
	RET
