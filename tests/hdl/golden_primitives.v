// Behavioral primitive models emitted by repro.hdl.primitives.
// Pin-compatible with the structural netlist emitted alongside.
`timescale 1ns/1ps

module AND2 (input A, input B, output Y);
  assign Y = A & B;
endmodule

module AND3 (input A, input B, input C, output Y);
  assign Y = A & B & C;
endmodule

module AND4 (input A, input B, input C, input D, output Y);
  assign Y = A & B & C & D;
endmodule

module AND8 (input A, input B, input C, input D, input E, input F, input G, input H, output Y);
  assign Y = A & B & C & D & E & F & G & H;
endmodule

module AO21 (input A1, input A2, input B, output Y);
  assign Y = (A1 & A2) | B;
endmodule

module AO22 (input A1, input A2, input B1, input B2, output Y);
  assign Y = (A1 & A2) | (B1 & B2);
endmodule

module AOI21 (input A1, input A2, input B, output Y);
  assign Y = ~((A1 & A2) | B);
endmodule

module AOI22 (input A1, input A2, input B1, input B2, output Y);
  assign Y = ~((A1 & A2) | (B1 & B2));
endmodule

module AOI32 (input A1, input A2, input A3, input B1, input B2, output Y);
  assign Y = ~((A1 & A2 & A3) | (B1 & B2));
endmodule

module BUF (input A, output Y);
  assign Y = A;
endmodule

module C2 (input A, input B, output reg Y);
  // Muller C-element: drive only when all inputs agree, else hold.
  initial Y = 1'bx;
  always @* begin
    if (A & B) Y = 1'b1;
    else if (~(A | B)) Y = 1'b0;
  end
endmodule

module C3 (input A, input B, input C, output reg Y);
  // Muller C-element: drive only when all inputs agree, else hold.
  initial Y = 1'bx;
  always @* begin
    if (A & B & C) Y = 1'b1;
    else if (~(A | B | C)) Y = 1'b0;
  end
endmodule

module DFF (input D, input CK, output reg Q);
  initial Q = 1'bx;
  always @(posedge CK) Q <= D;
endmodule

module INV (input A, output Y);
  assign Y = ~A;
endmodule

module MAJ3 (input A, input B, input C, output Y);
  assign Y = (A & B) | (A & C) | (B & C);
endmodule

module NAND2 (input A, input B, output Y);
  assign Y = ~(A & B);
endmodule

module NAND3 (input A, input B, input C, output Y);
  assign Y = ~(A & B & C);
endmodule

module NAND4 (input A, input B, input C, input D, output Y);
  assign Y = ~(A & B & C & D);
endmodule

module NOR2 (input A, input B, output Y);
  assign Y = ~(A | B);
endmodule

module NOR3 (input A, input B, input C, output Y);
  assign Y = ~(A | B | C);
endmodule

module NOR4 (input A, input B, input C, input D, output Y);
  assign Y = ~(A | B | C | D);
endmodule

module OA21 (input A1, input A2, input B, output Y);
  assign Y = (A1 | A2) & B;
endmodule

module OA22 (input A1, input A2, input B1, input B2, output Y);
  assign Y = (A1 | A2) & (B1 | B2);
endmodule

module OAI21 (input A1, input A2, input B, output Y);
  assign Y = ~((A1 | A2) & B);
endmodule

module OAI22 (input A1, input A2, input B1, input B2, output Y);
  assign Y = ~((A1 | A2) & (B1 | B2));
endmodule

module OAI32 (input A1, input A2, input A3, input B1, input B2, output Y);
  assign Y = ~((A1 | A2 | A3) & (B1 | B2));
endmodule

module OR2 (input A, input B, output Y);
  assign Y = A | B;
endmodule

module OR3 (input A, input B, input C, output Y);
  assign Y = A | B | C;
endmodule

module OR4 (input A, input B, input C, input D, output Y);
  assign Y = A | B | C | D;
endmodule

module OR8 (input A, input B, input C, input D, input E, input F, input G, input H, output Y);
  assign Y = A | B | C | D | E | F | G | H;
endmodule

module TIE0 (output Y);
  assign Y = 1'b0;
endmodule

module TIE1 (output Y);
  assign Y = 1'b1;
endmodule

module XNOR2 (input A, input B, output Y);
  assign Y = ~(A ^ B);
endmodule

module XOR2 (input A, input B, output Y);
  assign Y = A ^ B;
endmodule
