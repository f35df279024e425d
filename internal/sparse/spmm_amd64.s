//go:build !purego

#include "textflag.h"

// Register use in the tile loops:
//	SI  x             R12 k*8, the byte stride of a block row
//	R15 tile offset   DI  row A's output row, outB-16(SP) row B's
//	R9  &col[a0]      R10 &val[a0]     BX  row A's entry count
//	R11 &col[b0]      R8  &val[b0]     R14 row B's entry count
//	CX  entry t       DX  min of the two counts
//	AX, R13 the x offset of row A's and row B's entry t

// ENTRY8 adds val[t] * x[col[t]*k + tile : +8] to (acc0, acc1): one
// broadcast, then per lane a multiply and an add, each rounded.
#define ENTRY8(colp, valp, off, v, p0, p1, acc0, acc1) \
	MOVQ         (colp)(CX*8), off \
	IMULQ        R12, off          \
	ADDQ         R15, off          \
	VBROADCASTSD (valp)(CX*8), v   \
	VMULPD       (SI)(off*1), v, p0 \
	VMULPD       32(SI)(off*1), v, p1 \
	VADDPD       p0, acc0, acc0    \
	VADDPD       p1, acc1, acc1

#define ENTRY4(colp, valp, off, v, p0, acc0) \
	MOVQ         (colp)(CX*8), off \
	IMULQ        R12, off          \
	ADDQ         R15, off          \
	VBROADCASTSD (valp)(CX*8), v   \
	VMULPD       (SI)(off*1), v, p0 \
	VADDPD       p0, acc0, acc0

#define ENTRY8A ENTRY8(R9, R10, AX, Y8, Y9, Y10, Y0, Y1)
#define ENTRY8B ENTRY8(R11, R8, R13, Y11, Y12, Y13, Y2, Y3)
#define ENTRY4A ENTRY4(R9, R10, AX, Y8, Y9, Y0)
#define ENTRY4B ENTRY4(R11, R8, R13, Y11, Y12, Y2)

// func spmmAVX2(y, x []float64, rowPtr, col []int, val []float64, rows []int, k, lo, hi int)
TEXT ·spmmAVX2(SB), NOSPLIT, $16-168
	MOVQ x_base+24(FP), SI
	MOVQ k+144(FP), R12
	SHLQ $3, R12
	MOVQ lo+152(FP), AX
	MOVQ AX, i-8(SP)

pair:
	// Rows A = i and B = i+1; the last row of an odd range pairs with
	// itself and is stored twice, the same bits both times.
	MOVQ i-8(SP), BX
	MOVQ hi+160(FP), AX
	CMPQ BX, AX
	JGE  done
	LEAQ 1(BX), DX
	CMPQ DX, AX
	JLT  twoRows
	MOVQ BX, DX

twoRows:
	LEAQ 2(BX), AX
	MOVQ AX, i-8(SP)

	// Output rows: rows[i], or i itself when rows is nil.
	MOVQ  rows_base+120(FP), AX
	MOVQ  BX, DI
	MOVQ  DX, R13
	TESTQ AX, AX
	JZ    outRows
	MOVQ  (AX)(BX*8), DI
	MOVQ  (AX)(DX*8), R13

outRows:
	IMULQ R12, DI
	ADDQ  y_base+0(FP), DI
	IMULQ R12, R13
	ADDQ  y_base+0(FP), R13
	MOVQ  R13, outB-16(SP)

	// Entry ranges of the two rows.
	MOVQ rowPtr_base+48(FP), AX
	MOVQ (AX)(BX*8), R9
	MOVQ 8(AX)(BX*8), BX
	SUBQ R9, BX
	MOVQ (AX)(DX*8), R11
	MOVQ 8(AX)(DX*8), R14
	SUBQ R11, R14
	MOVQ val_base+96(FP), AX
	LEAQ (AX)(R9*8), R10
	LEAQ (AX)(R11*8), R8
	MOVQ col_base+72(FP), AX
	LEAQ (AX)(R9*8), R9
	LEAQ (AX)(R11*8), R11
	MOVQ BX, DX
	CMPQ R14, DX
	CMOVQLT R14, DX
	XORQ R15, R15

tile8:
	LEAQ   64(R15), AX
	CMPQ   AX, R12
	JGT    tile4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   CX, CX
	CMPQ   CX, DX
	JGE    tail8A

both8:
	ENTRY8A
	ENTRY8B
	INCQ CX
	CMPQ CX, DX
	JLT  both8

tail8A:
	CMPQ CX, BX
	JGE  tail8B0
	ENTRY8A
	INCQ CX
	JMP  tail8A

tail8B0:
	MOVQ DX, CX

tail8B:
	CMPQ CX, R14
	JGE  store8
	ENTRY8B
	INCQ CX
	JMP  tail8B

store8:
	VMOVUPD Y0, (DI)(R15*1)
	VMOVUPD Y1, 32(DI)(R15*1)
	MOVQ    outB-16(SP), AX
	VMOVUPD Y2, (AX)(R15*1)
	VMOVUPD Y3, 32(AX)(R15*1)
	ADDQ    $64, R15
	JMP     tile8

tile4:
	LEAQ   32(R15), AX
	CMPQ   AX, R12
	JGT    pair
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	XORQ   CX, CX
	CMPQ   CX, DX
	JGE    tail4A

both4:
	ENTRY4A
	ENTRY4B
	INCQ CX
	CMPQ CX, DX
	JLT  both4

tail4A:
	CMPQ CX, BX
	JGE  tail4B0
	ENTRY4A
	INCQ CX
	JMP  tail4A

tail4B0:
	MOVQ DX, CX

tail4B:
	CMPQ CX, R14
	JGE  store4
	ENTRY4B
	INCQ CX
	JMP  tail4B

store4:
	VMOVUPD Y0, (DI)(R15*1)
	MOVQ    outB-16(SP), AX
	VMOVUPD Y2, (AX)(R15*1)
	JMP     pair

done:
	VZEROUPPER
	RET
