//go:build !purego

#include "textflag.h"

// Register use in both kernels:
//	SI  the column headers       R8  the handled columns' byte width, 8·len(cols)
//	R12 k*8, the byte stride of a buffer row
//	R13 bs                       R9  bs&^7
//	BX  row i                    R14 the buffer's row i
//	R15 the group's byte offset in a buffer row, 8·c
//	AX  the group's headers      CX, DX scratch

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

// GATHER4 loads element i of the four columns whose slice headers start at
// off(AX) into the lanes of Y (X its low half, T a scratch half).
#define GATHER4(off, X, T, Y) \
	MOVQ        off(AX), CX      \
	VMOVSD      (CX)(BX*8), X    \
	MOVQ        off+24(AX), CX   \
	VMOVHPD     (CX)(BX*8), X, X \
	MOVQ        off+48(AX), CX   \
	VMOVSD      (CX)(BX*8), T    \
	MOVQ        off+72(AX), CX   \
	VMOVHPD     (CX)(BX*8), T, T \
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

// STORE8ROWS stores Y8…Y15 to the buffer rows at DX, DX+k, …, DX+7k.
#define STORE8ROWS \
	VMOVUPD Y8, (DX)         \
	VMOVUPD Y9, (DX)(R12*1)  \
	VMOVUPD Y10, (DX)(R12*2) \
	LEAQ    (DX)(R12*2), CX  \
	VMOVUPD Y11, (CX)(R12*1) \
	LEAQ    (DX)(R12*4), DX  \
	VMOVUPD Y12, (DX)        \
	VMOVUPD Y13, (DX)(R12*1) \
	VMOVUPD Y14, (DX)(R12*2) \
	LEAQ    (DX)(R12*2), CX  \
	VMOVUPD Y15, (CX)(R12*1)

// LOAD8ROWS loads the buffer rows at DX, DX+k, …, DX+7k into Y0…Y7.
#define LOAD8ROWS \
	VMOVUPD (DX), Y0         \
	VMOVUPD (DX)(R12*1), Y1  \
	VMOVUPD (DX)(R12*2), Y2  \
	LEAQ    (DX)(R12*2), CX  \
	VMOVUPD (CX)(R12*1), Y3  \
	LEAQ    (DX)(R12*4), DX  \
	VMOVUPD (DX), Y4         \
	VMOVUPD (DX)(R12*1), Y5  \
	VMOVUPD (DX)(R12*2), Y6  \
	LEAQ    (DX)(R12*2), CX  \
	VMOVUPD (CX)(R12*1), Y7

// LOADARGS loads the registers both kernels share; buf and hdr name the
// buffer's and the headers' base arguments.
#define LOADARGS(buf, hdr, ncols) \
	MOVQ buf, R14       \
	MOVQ hdr, SI        \
	MOVQ ncols, R8      \
	SHLQ $3, R8         \
	MOVQ k+48(FP), R12  \
	SHLQ $3, R12        \
	MOVQ bs+56(FP), R13 \
	MOVQ R13, R9        \
	ANDQ $-8, R9        \
	XORQ BX, BX

// func interleaveAVX2(xb []float64, cols [][]float64, k, bs int)
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-64
	LOADARGS(xb_base+0(FP), cols_base+24(FP), cols_len+32(FP))

irow8:
	CMPQ BX, R9
	JGE  irow1
	XORQ R15, R15

	// Rows i…i+7 of four columns, two 4×4 transposes, into rows i…i+7.
igroup8:
	CMPQ    R15, R8
	JGE     inext8
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
	JMP     igroup8

inext8:
	ADDQ $8, BX
	LEAQ (R14)(R12*8), R14
	JMP  irow8

	// A row past the last multiple of eight: row i of the columns into
	// row i.
irow1:
	CMPQ BX, R13
	JGE  idone
	XORQ R15, R15

igroup1:
	CMPQ    R15, R8
	JGE     inext1
	LEAQ    (R15)(R15*2), AX
	ADDQ    SI, AX
	GATHER4(0, X0, X4, Y0)
	VMOVUPD Y0, (R14)(R15*1)
	ADDQ    $32, R15
	JMP     igroup1

inext1:
	INCQ BX
	ADDQ R12, R14
	JMP  irow1

idone:
	VZEROUPPER
	RET

// func deinterleaveAVX2(cols [][]float64, yb []float64, k, bs int)
TEXT ·deinterleaveAVX2(SB), NOSPLIT, $0-64
	LOADARGS(yb_base+24(FP), cols_base+0(FP), cols_len+8(FP))

drow8:
	CMPQ BX, R9
	JGE  drow1
	XORQ R15, R15

	// Rows i…i+7, two 4×4 transposes, out to rows i…i+7 of four columns.
dgroup8:
	CMPQ    R15, R8
	JGE     dnext8
	LEAQ    (R14)(R15*1), DX
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
	JMP     dgroup8

dnext8:
	ADDQ $8, BX
	LEAQ (R14)(R12*8), R14
	JMP  drow8

	// A row past the last multiple of eight: row i out to row i of the
	// columns.
drow1:
	CMPQ BX, R13
	JGE  ddone
	XORQ R15, R15

dgroup1:
	CMPQ    R15, R8
	JGE     dnext1
	VMOVUPD (R14)(R15*1), Y0
	LEAQ    (R15)(R15*2), AX
	ADDQ    SI, AX
	SCATTER4(0, X0, X4, Y0)
	ADDQ    $32, R15
	JMP     dgroup1

dnext1:
	INCQ BX
	ADDQ R12, R14
	JMP  drow1

ddone:
	VZEROUPPER
	RET
